#include "trace.h"

#include <chrono>

#include "crypto/entropy.h"
#include "crypto/hkdf.h"
#include "gfw/checkpoint.h"
#include "proxy/wire.h"

namespace campaignbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The fault layer routes a duplicated segment's second copy through the
// middleboxes right after the original, byte-identical and sharing the
// original's payload buffer.
bool same_wire_copy(const net::Segment& a, const net::Segment& b) {
  return a.src == b.src && a.dst == b.dst && a.flags == b.flags &&
         a.sent_at == b.sent_at && a.ip_id == b.ip_id && a.seq == b.seq &&
         a.retransmission == b.retransmission && a.payload.data() == b.payload.data();
}

struct ServerCipher {
  const gfwsim::proxy::CipherSpec* spec = nullptr;
  gfwsim::Bytes key;
};

// The shard's slice [log_offset, log_offset + probes) of the merged log.
gfw::ProbeLog shard_log(const gfw::CampaignResult& result, const gfw::ShardSummary& shard) {
  const auto begin =
      result.log.records().begin() + static_cast<std::ptrdiff_t>(shard.log_offset);
  gfw::ProbeLog slice;
  slice.assign(std::vector<gfw::ProbeRecord>(
      begin, begin + static_cast<std::ptrdiff_t>(shard.probes)));
  return slice;
}

void replay_codec(const gfw::CampaignResult& result, ReplayResult& out) {
  for (const gfw::ShardSummary& shard : result.shards) {
    const gfw::ProbeLog log = shard_log(result, shard);
    const bool fleet = gfw::shard_has_fleet_data(shard, log);
    auto start = Clock::now();
    const gfwsim::Bytes bytes = fleet ? gfw::serialize_shard_fleet(shard, log)
                                      : gfw::serialize_shard(shard, log);
    out.codec_encode_s += seconds_since(start);
    out.codec_bytes += bytes.size();

    start = Clock::now();
    const gfw::ShardCheckpoint parsed =
        fleet ? gfw::parse_shard_fleet(bytes) : gfw::parse_shard(bytes);
    out.codec_decode_s += seconds_since(start);

    const gfwsim::Bytes again = fleet ? gfw::serialize_shard_fleet(parsed.summary, parsed.log)
                                      : gfw::serialize_shard(parsed.summary, parsed.log);
    if (again != bytes) out.codec_round_trip = false;
  }
}

}  // namespace

ShardCapture::ShardCapture(gfw::World& world)
    : classifier(world.gfw().classifier()), gfw_(world.gfw()), network_(world.network()) {
  // The World registers its Gfw as the network's only middlebox, so
  // swapping the wrapper in keeps the middlebox order.
  network_.remove_middlebox(&gfw_);
  network_.add_middlebox(this);
  const gfw::Scenario& scenario = world.scenario();
  for (std::size_t i = 0; i < world.fleet_size(); ++i) {
    servers[world.server_endpoint(i)] =
        scenario.fleet.empty() ? scenario.server : scenario.fleet[i].server;
  }
}

net::Verdict ShardCapture::on_segment(const net::Segment& segment) {
  const auto start = Clock::now();
  const net::Verdict verdict = gfw_.on_segment(segment);
  middlebox_s += seconds_since(start);
  ++middlebox_calls;
  capture(segment);
  return verdict;
}

void ShardCapture::capture(const net::Segment& segment) {
  const bool duplicate = same_wire_copy(segment, last_);
  last_ = segment;
  if (duplicate || segment.retransmission) return;

  const bool syn = segment.has(net::TcpFlag::kSyn);
  if (!syn && !segment.is_data()) return;
  auto& by_dst = open_[segment.src];
  if (syn) {
    by_dst[segment.dst] = flows.size();
    flows.push_back(CapturedFlow{segment.src, segment.dst, {}});
  }
  if (!segment.is_data()) return;
  ++data_segments;
  auto it = by_dst.find(segment.dst);
  if (it == by_dst.end()) {
    it = by_dst.emplace(segment.dst, flows.size()).first;
    flows.push_back(CapturedFlow{segment.src, segment.dst, {}});
  }
  flows[it->second].payloads.push_back(segment.payload);
}

void ShardCapture::detach(gfw::World& world) {
  network_.remove_middlebox(this);
  network_.add_middlebox(&gfw_);
  last_ = net::Segment();
  prober_acquisitions = world.gfw().pool().acquisitions();
  for (const auto& [ip, probes] : world.gfw().pool().probes_per_address()) {
    prober_ips.insert(ip.value);
  }
}

void Tracer::attach(gfw::World& world, std::uint32_t shard) {
  slots_[shard] = std::make_unique<ShardCapture>(world);
}

void Tracer::detach(gfw::World& world, std::uint32_t shard) {
  slots_[shard]->detach(world);
}

ReplayResult replay_layers(const Tracer& tracer, const gfw::CampaignResult& result) {
  namespace proxy = gfwsim::proxy;
  namespace crypto = gfwsim::crypto;
  ReplayResult out;

  for (const auto& shard : tracer.shards()) {
    if (!shard) continue;
    std::map<net::Endpoint, ServerCipher> ciphers;
    for (const auto& [endpoint, setup] : shard->servers) {
      ServerCipher& cipher = ciphers[endpoint];
      cipher.spec = proxy::find_cipher(setup.cipher);
      cipher.key = proxy::master_key(*cipher.spec, setup.password);
    }

    // Directed flows to or from a server, with the server they belong to.
    struct Work {
      const CapturedFlow* flow;
      const ServerCipher* cipher;
      net::Endpoint server;
      bool upstream;  // towards the server
      bool probe;     // sent by a prober address
    };
    std::vector<Work> work;
    for (const CapturedFlow& flow : shard->flows) {
      if (flow.payloads.empty()) continue;
      const bool upstream = ciphers.count(flow.dst) != 0;
      const net::Endpoint server = upstream ? flow.dst : flow.src;
      const auto cipher = ciphers.find(server);
      if (cipher == ciphers.end()) continue;
      const net::Endpoint peer = upstream ? flow.src : flow.dst;
      const bool probe = shard->prober_ips.count(peer.addr.value) != 0;
      work.push_back(Work{&flow, &cipher->second, server, upstream, probe});
    }

    // proxy + crypto: every directed flow through a fresh Decryptor.
    gfwsim::Bytes plain;
    auto start = Clock::now();
    for (const Work& w : work) {
      proxy::Decryptor decryptor(*w.cipher->spec, w.cipher->key);
      bool failed = false;
      for (const net::PayloadRef& payload : w.flow->payloads) {
        if (decryptor.feed(payload.span(), plain) == proxy::Decryptor::Status::kAuthError) {
          failed = true;
          break;
        }
        out.decrypt_bytes += plain.size();
        plain.clear();
      }
      if (failed) ++out.auth_failures;
      if (w.upstream && !w.probe) {
        ++out.client_flows;
        if (!failed && decryptor.header_received()) ++out.client_flows_decrypted;
      }
    }
    out.decrypt_s += seconds_since(start);

    // crypto: one session-subkey derivation per AEAD salt.
    start = Clock::now();
    for (const Work& w : work) {
      const proxy::CipherSpec& spec = *w.cipher->spec;
      const net::PayloadRef& first = w.flow->payloads.front();
      if (spec.kind != proxy::CipherKind::kAead || first.size() < spec.iv_len) continue;
      const gfwsim::Bytes subkey =
          crypto::ss_subkey(w.cipher->key, first.span().first(spec.iv_len));
      if (!subkey.empty()) ++out.kdf_calls;
    }
    out.kdf_s += seconds_since(start);

    // gfw + crypto: the passive stage's features on each connection's
    // first payload (both live in other translation units, so the calls
    // cannot be optimised away).
    start = Clock::now();
    for (const Work& w : work) {
      if (w.upstream) crypto::shannon_entropy(w.flow->payloads.front().span());
    }
    out.entropy_s += seconds_since(start);
    start = Clock::now();
    for (const Work& w : work) {
      if (w.upstream) shard->classifier.suspicion(w.flow->payloads.front().span());
    }
    out.classifier_s += seconds_since(start);

    // servers: each probe's first payload against a lab of its server.
    std::map<net::Endpoint, std::unique_ptr<probesim::ProbeLab>> labs;
    for (const Work& w : work) {
      if (w.upstream && w.probe && labs.count(w.server) == 0) {
        labs[w.server] = std::make_unique<probesim::ProbeLab>(shard->servers.at(w.server));
      }
    }
    start = Clock::now();
    for (const Work& w : work) {
      if (!w.upstream || !w.probe) continue;
      labs[w.server]->prober().send_probe(w.flow->payloads.front().span());
      ++out.probe_payloads;
    }
    out.probe_replay_s += seconds_since(start);
  }

  replay_codec(result, out);
  return out;
}

}  // namespace campaignbench
