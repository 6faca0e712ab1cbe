// Outside-in layer tracing for the campaign benchmark.
//
// Everything here reaches the simulator through its public API only:
//   * in situ, a timing middlebox replaces each shard's Gfw on the
//     network (Network::remove_middlebox/add_middlebox from the runner's
//     before hook, restored in the after hook). It times every
//     Gfw::on_segment call and captures each directed flow's payloads in
//     send order, skipping ARQ retransmissions and wire duplicates;
//   * after the campaign, the captured inputs are replayed through each
//     layer's public functions (proxy::Decryptor, crypto::ss_subkey,
//     crypto::shannon_entropy, PassiveClassifier::suspicion, a
//     probesim::ProbeLab per server, and the checkpoint codec), one timed
//     span per layer.
// Capture holds shared payload references, never copies, and changes no
// simulator state, so a traced campaign's digest equals an untraced one's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "gfw/runner.h"
#include "net/network.h"
#include "probesim/probesim.h"

namespace campaignbench {

namespace gfw = gfwsim::gfw;
namespace net = gfwsim::net;
namespace probesim = gfwsim::probesim;

// One direction of one TCP connection as the border saw it.
struct CapturedFlow {
  net::Endpoint src;
  net::Endpoint dst;
  std::vector<net::PayloadRef> payloads;  // data segments in send order
};

// Wraps one shard's Gfw on that shard's network for the shard's lifetime.
class ShardCapture : public net::Middlebox {
 public:
  explicit ShardCapture(gfw::World& world);
  // The network holds this object's address until detach().
  ShardCapture(const ShardCapture&) = delete;
  ShardCapture& operator=(const ShardCapture&) = delete;

  net::Verdict on_segment(const net::Segment& segment) override;

  // Restores the Gfw as the network's middlebox and harvests what the
  // replays need from the finished World.
  void detach(gfw::World& world);

  double middlebox_s = 0.0;
  std::uint64_t middlebox_calls = 0;
  std::uint64_t data_segments = 0;  // original data segments, retransmits included
  std::size_t prober_acquisitions = 0;
  std::vector<CapturedFlow> flows;
  std::map<net::Endpoint, probesim::ServerSetup> servers;
  // Every address the prober pool sent a probe from, including probes
  // still unfinished (so never logged) when the shard ended.
  std::set<std::uint32_t> prober_ips;
  gfw::PassiveClassifier classifier;

 private:
  void capture(const net::Segment& segment);

  gfw::Gfw& gfw_;
  net::Network& network_;
  std::unordered_map<net::Endpoint, std::unordered_map<net::Endpoint, std::size_t>>
      open_;  // src -> dst -> index into flows
  net::Segment last_;  // the previous wire copy, to spot duplicates
};

// Per-shard capture slots for one traced campaign; the runner's hooks
// call attach/detach on the worker that owns the shard.
class Tracer {
 public:
  explicit Tracer(std::uint32_t shards) : slots_(shards) {}

  void attach(gfw::World& world, std::uint32_t shard);
  void detach(gfw::World& world, std::uint32_t shard);

  const std::vector<std::unique_ptr<ShardCapture>>& shards() const { return slots_; }

 private:
  std::vector<std::unique_ptr<ShardCapture>> slots_;
};

// Host-time spans and counts of the post-campaign layer replays.
struct ReplayResult {
  double decrypt_s = 0.0;
  std::uint64_t decrypt_bytes = 0;
  std::uint64_t auth_failures = 0;
  double kdf_s = 0.0;
  std::uint64_t kdf_calls = 0;
  double entropy_s = 0.0;
  double classifier_s = 0.0;
  double probe_replay_s = 0.0;
  std::uint64_t probe_payloads = 0;
  // Client (non-probe) flows towards a server, and how many of them
  // decrypted to the end without an authentication failure.
  std::uint64_t client_flows = 0;
  std::uint64_t client_flows_decrypted = 0;

  double codec_encode_s = 0.0;
  double codec_decode_s = 0.0;
  std::uint64_t codec_bytes = 0;
  bool codec_round_trip = true;  // serialize(parse(bytes)) == bytes

  double total_s() const {
    return decrypt_s + kdf_s + entropy_s + classifier_s + probe_replay_s +
           codec_encode_s + codec_decode_s;
  }
};

ReplayResult replay_layers(const Tracer& tracer, const gfw::CampaignResult& result);

}  // namespace campaignbench
