// The campaign benchmark: whole sharded campaigns through
// gfw::ShardedRunner, timed in host seconds from outside the program.
//
//   campaign_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 prints the end-to-end metrics of untraced campaigns; --trace 1
// alternates untraced and traced campaigns and prints the per-layer
// metrics (trace.h). Either way the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}, where attempted/failed
// count campaign shards, and the exit code is nonzero unless every
// campaign passed its checks. README.md in this directory documents the
// workloads and metrics; run.py builds this binary and runs it.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "crypto/cpu.h"
#include "crypto/sha1.h"
#include "gfw/checkpoint.h"
#include "trace.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace campaignbench {
namespace {

namespace crypto = gfwsim::crypto;
using Clock = std::chrono::steady_clock;
using Impl = probesim::ServerSetup::Impl;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- Workloads --------------------------------------------------------------

gfw::Scenario outline_ideal() { return gfwsim::bench::standard_scenario(); }

// bench_throughput's faults arm.
gfw::Scenario outline_lossy() {
  gfw::Scenario scenario = gfwsim::bench::standard_scenario();
  scenario.faults.loss = 0.01;
  scenario.faults.duplicate = 0.005;
  scenario.faults.reorder = 0.01;
  scenario.faults.jitter = net::milliseconds(10);
  return scenario;
}

gfw::ServerSpec fleet_server(Impl impl, const char* cipher, const char* region) {
  gfw::ServerSpec spec;
  spec.server.impl = impl;
  spec.server.cipher = cipher;
  spec.region = region;
  return spec;
}

// bench_fleet's implementation x cipher x region grid in one World.
gfw::Scenario fleet_grid() {
  gfw::Scenario scenario;
  scenario.traffic = gfwsim::client::TrafficSpec::browsing();
  scenario.connection_interval = net::seconds(90);
  scenario.classifier_base_rate = 0.35;
  scenario.fleet = {
      fleet_server(Impl::kOutline107, "chacha20-ietf-poly1305", "beijing"),
      fleet_server(Impl::kOutline107, "chacha20-ietf-poly1305", "unicom"),
      fleet_server(Impl::kOutline110, "chacha20-ietf-poly1305", "beijing"),
      fleet_server(Impl::kLibevNew, "aes-256-gcm", "beijing"),
      fleet_server(Impl::kLibevNew, "chacha20-ietf-poly1305", "unicom"),
      fleet_server(Impl::kLibevOld, "aes-256-ctr", "unicom"),
      fleet_server(Impl::kSsPython, "aes-256-cfb", "beijing"),
      fleet_server(Impl::kSsr, "rc4-md5", "unicom"),
  };
  return scenario;
}

struct Workload {
  const char* name;
  gfw::Scenario (*make)();
  std::uint64_t base_seed;  // the scenario seed at --seed 0
  int hours;                // simulated campaign length per shard
  std::uint32_t shards;
  unsigned threads;
  bool journal;  // arm the checkpoint journal
  // SHA-1 over serialize_shard of every merged shard (bench_checkpoint's
  // digest) at --seed 0 and the default length.
  const char* pinned_digest;
};

// Many short shards rather than a few long ones: a GFW block cuts most of
// the remaining work of the shard it hits, and with 4 shards that made the
// work per campaign (and so campaign_s) bimodal across seeds. At 24 shards
// the bytes per outline_lossy campaign still moved by up to 15% across
// seeds, so that workload averages over 72.
const Workload kWorkloads[] = {
    {"outline_ideal", outline_ideal, 0x600D, 12, 24, 1, false,
     "beffeb88868ea9ac2ae5f339bdecfd76f56b2f1f"},
    {"outline_lossy", outline_lossy, 0x600D, 12, 72, 1, false,
     "66c0c7c502c3f1bf37c4847ae0449080ebd94545"},
    {"fleet_grid", fleet_grid, 0xF1EE7CA2, 12, 16, 2, true,
     "706a57566c658895c9395965286d7105abea2131"},
};

// ---- One campaign -----------------------------------------------------------

struct Campaign {
  gfw::CampaignResult result;
  unsigned threads = 1;
  double setup_s = 0.0;     // runner call -> first before hook
  double campaign_s = 0.0;  // first before hook -> merged result
  double merge_s = 0.0;     // last after hook -> merged result
  double events_per_s = 0.0;
  double goodput_mb_per_s = 0.0;
  std::vector<double> shard_s;  // before -> after hook, per merged shard
  std::string digest;
  std::vector<std::string> shard_digests;  // by merged position
};

std::string hex_digest(crypto::Sha1& hash) {
  const auto digest = hash.finish();
  return gfwsim::hex_encode(gfwsim::ByteSpan(digest.data(), digest.size()));
}

// bench_checkpoint's campaign digest, plus one digest per shard so a
// mismatch can be pinned on the shards that caused it.
void digest_campaign(Campaign& campaign) {
  const gfw::CampaignResult& result = campaign.result;
  crypto::Sha1 all;
  for (const gfw::ShardSummary& shard : result.shards) {
    const auto begin =
        result.log.records().begin() + static_cast<std::ptrdiff_t>(shard.log_offset);
    gfw::ProbeLog slice;
    slice.assign(std::vector<gfw::ProbeRecord>(
        begin, begin + static_cast<std::ptrdiff_t>(shard.probes)));
    const gfwsim::Bytes bytes = gfw::serialize_shard(shard, slice);
    all.update(bytes);
    crypto::Sha1 one;
    one.update(bytes);
    campaign.shard_digests.push_back(hex_digest(one));
  }
  campaign.digest = hex_digest(all);
}

Campaign run_campaign(const Workload& workload, const gfw::Scenario& scenario,
                      unsigned threads, const std::string& journal, Tracer* tracer) {
  std::vector<Clock::time_point> before(workload.shards), after(workload.shards);
  gfw::ShardedRunnerOptions options;
  options.shards = workload.shards;
  options.threads = threads;
  options.checkpoint_path = journal;
  gfw::ShardedRunner runner(options);
  // Each hook writes only its own shard's slot; run() joins its workers
  // before returning, which orders these writes before the reads below.
  runner.set_before_run([&](gfw::World& world, std::uint32_t shard) {
    if (tracer != nullptr) tracer->attach(world, shard);
    before[shard] = Clock::now();
  });
  runner.set_after_run([&](gfw::World& world, std::uint32_t shard) {
    after[shard] = Clock::now();
    if (tracer != nullptr) tracer->detach(world, shard);
  });

  // Every campaign opens a fresh journal, so set-up never pays for
  // truncating the previous campaign's.
  if (!journal.empty()) std::remove(journal.c_str());
  Campaign campaign;
  campaign.threads = std::min(threads, workload.shards);
  const Clock::time_point start = Clock::now();
  campaign.result = runner.run(scenario);
  const Clock::time_point end = Clock::now();

  Clock::time_point first = end, last = start;
  for (const gfw::ShardSummary& shard : campaign.result.shards) {
    first = std::min(first, before[shard.shard_index]);
    last = std::max(last, after[shard.shard_index]);
    campaign.shard_s.push_back(
        seconds_between(before[shard.shard_index], after[shard.shard_index]));
  }
  campaign.setup_s = seconds_between(start, first);
  campaign.campaign_s = seconds_between(first, end);
  campaign.merge_s = seconds_between(last, end);
  campaign.events_per_s =
      static_cast<double>(campaign.result.events_processed()) / campaign.campaign_s;
  campaign.goodput_mb_per_s = static_cast<double>(campaign.result.payload_bytes_delivered()) /
                              1e6 / campaign.campaign_s;
  digest_campaign(campaign);
  return campaign;
}

// ---- Correctness ------------------------------------------------------------

// Counts failed shards: quarantined or recovered after a failure, an
// unclean teardown, or a digest other than the expected one.
class Checker {
 public:
  Checker(std::uint32_t shards, std::string pinned)
      : shards_(shards), pinned_(std::move(pinned)) {}

  void check(const Campaign& campaign, const std::string& label) {
    std::set<std::uint32_t> bad;
    for (const gfw::ShardFailure& failure : campaign.result.failures) {
      bad.insert(failure.shard_index);
      problem(label + ": shard " + std::to_string(failure.shard_index) +
              " failed: " + failure.what);
    }
    const auto& merged = campaign.result.shards;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const std::uint32_t shard = merged[i].shard_index;
      if (!merged[i].teardown.clean()) {
        bad.insert(shard);
        problem(label + ": shard " + std::to_string(shard) +
                " teardown: " + merged[i].teardown.describe());
      }
      const auto ref = reference_.find(shard);
      if (ref != reference_.end() && ref->second != campaign.shard_digests[i]) {
        bad.insert(shard);
        problem(label + ": shard " + std::to_string(shard) + " digest " +
                campaign.shard_digests[i] + " differs from the reference run's " +
                ref->second);
      }
    }
    if (!pinned_.empty() && campaign.digest != pinned_) {
      for (std::uint32_t shard = 0; shard < shards_; ++shard) bad.insert(shard);
      problem(label + ": campaign digest " + campaign.digest + " != pinned " + pinned_);
    }
    attempted_ += shards_;
    failed_ += bad.size();
  }

  // Later campaigns must reproduce this one shard by shard (the
  // cross-thread-count determinism check).
  void set_reference(const Campaign& campaign) {
    for (std::size_t i = 0; i < campaign.result.shards.size(); ++i) {
      reference_[campaign.result.shards[i].shard_index] = campaign.shard_digests[i];
    }
  }

  void problem(const std::string& what) {
    std::cerr << "campaign_bench: " << what << "\n";
    ++problems_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool ok() const { return problems_ == 0; }

 private:
  std::uint32_t shards_;
  std::string pinned_;
  std::map<std::uint32_t, std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t problems_ = 0;
};

// ---- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(double part, double whole) { return whole != 0.0 ? part / whole : 0.0; }

// Shortest text that reads back as exactly `value`.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// Results are comparable only between runs that print the same line.
void print_host() {
  const crypto::KernelTiers tiers = crypto::active_kernel_tiers();
  std::cout << "host: cpu=\"" << cpu_model() << "\" nproc=" << online_cpus()
            << " build=" << CAMPAIGNBENCH_BUILD_TYPE
            << " features=" << crypto::cpu_feature_string()
            << " kernels=aes:" << crypto::tier_name(tiers.aes)
            << ",ghash:" << crypto::tier_name(tiers.ghash)
            << ",chacha:" << crypto::tier_name(tiers.chacha)
            << ",poly1305:" << crypto::tier_name(tiers.poly1305) << "\n";
}

void print_result(bool correct, const Checker& checker, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %22s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checker.attempted()) +
                     ", \"failed\": " + std::to_string(checker.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

// ---- Command line -----------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int hours = 0;              // 0 = the workload's length
  std::string expect_digest;  // overrides the pin
  std::string journal_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "campaign_bench: " << why << "\n"
            << "usage: campaign_bench --workload NAME [--seed N] [--seconds S]\n"
            << "         [--trace 0|1] [--hours H] [--expect-digest HEX]\n"
            << "         [--journal-dir DIR]\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 0);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) usage("--trace takes 0 or 1");
    } else if (flag == "--hours") {
      args.hours = static_cast<int>(std::strtol(value, &end, 10));
      if (args.hours <= 0) usage("--hours must be positive");
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else if (flag == "--journal-dir") {
      args.journal_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("malformed value for " + flag).c_str());
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

// ---- Runs -------------------------------------------------------------------

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::vector<Metric> end_to_end(const std::vector<Campaign>& runs, double peak_rss_mb) {
  std::vector<double> setup, campaign, events, goodput;
  for (const Campaign& run : runs) {
    setup.push_back(run.setup_s);
    campaign.push_back(run.campaign_s);
    events.push_back(run.events_per_s);
    goodput.push_back(run.goodput_mb_per_s);
  }
  return {
      {"setup_s", median(setup), "s"},
      {"campaign_s", median(campaign), "s"},
      {"events_per_s", median(events), "1/s"},
      {"goodput_mb_per_s", median(goodput), "MB/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

struct TracedRun {
  Campaign campaign;
  double middlebox_s = 0.0;
  std::uint64_t middlebox_calls = 0;
  std::uint64_t data_segments = 0;
  std::uint64_t prober_acquisitions = 0;
  ReplayResult replay;
};

std::vector<Metric> per_layer(const std::vector<Campaign>& untraced,
                              const std::vector<TracedRun>& traced) {
  std::vector<double> shard_p50, shard_max, idle, merge, encode, decode, middlebox,
      classifier, decrypt, kdf, entropy, probe_replay, covered, replayed, traced_s,
      untraced_s;
  for (const Campaign& run : untraced) untraced_s.push_back(run.campaign_s);
  for (const TracedRun& run : traced) {
    const Campaign& c = run.campaign;
    double shard_sum = 0.0;
    for (double s : c.shard_s) shard_sum += s;
    shard_p50.push_back(median(c.shard_s));
    shard_max.push_back(
        c.shard_s.empty() ? 0.0 : *std::max_element(c.shard_s.begin(), c.shard_s.end()));
    idle.push_back(1.0 - ratio(shard_sum, c.threads * c.campaign_s));
    merge.push_back(c.merge_s);
    traced_s.push_back(c.campaign_s);
    encode.push_back(run.replay.codec_encode_s);
    decode.push_back(run.replay.codec_decode_s);
    middlebox.push_back(run.middlebox_s);
    classifier.push_back(run.replay.classifier_s);
    decrypt.push_back(run.replay.decrypt_s);
    kdf.push_back(run.replay.kdf_s);
    entropy.push_back(run.replay.entropy_s);
    probe_replay.push_back(run.replay.probe_replay_s);
    covered.push_back(ratio(run.middlebox_s, shard_sum));
    replayed.push_back(ratio(run.replay.total_s(), shard_sum));
  }

  // Counts repeat exactly for a seed; take them from the last traced run.
  const TracedRun& last = traced.back();
  const gfw::CampaignResult& result = last.campaign.result;
  double transmitted = 0, delivered = 0, loss = 0, inspected = 0, blocks = 0;
  for (const gfw::ShardSummary& shard : result.shards) {
    transmitted += static_cast<double>(shard.segments_transmitted);
    delivered += static_cast<double>(shard.segments_delivered);
    loss += static_cast<double>(shard.segments_dropped_loss);
    inspected += static_cast<double>(shard.flows_inspected);
    blocks += static_cast<double>(shard.blocking_history.size());
  }
  double stage2 = 0, data = 0;
  for (const gfw::ProbeRecord& record : result.log.records()) {
    switch (record.type) {
      case probesim::ProbeType::kR3:
      case probesim::ProbeType::kR4:
      case probesim::ProbeType::kR5:
      case probesim::ProbeType::kNR1: ++stage2; break;
      default: break;
    }
    if (record.reaction == probesim::Reaction::kData) ++data;
  }
  const double probes = static_cast<double>(result.log.size());
  const double flagged = static_cast<double>(result.flows_flagged());
  const auto count = [](auto value) { return static_cast<double>(value); };

  return {
      {"runner.shard_s.p50", median(shard_p50), "s"},
      {"runner.shard_s.max", median(shard_max), "s"},
      {"runner.thread_idle_share", median(idle), "ratio"},
      {"runner.merge_s", median(merge), "s"},
      {"checkpoint.encode_s", median(encode), "s"},
      {"checkpoint.decode_s", median(decode), "s"},
      {"checkpoint.bytes", count(last.replay.codec_bytes), "bytes"},
      {"loop.events", count(result.events_processed()), "count"},
      {"net.segments", transmitted, "count"},
      {"net.data_segments", count(last.data_segments), "count"},
      {"net.payload_bytes", count(result.payload_bytes_delivered()), "bytes"},
      {"net.retransmissions", count(result.retransmissions()), "count"},
      {"net.drops.loss", loss, "count"},
      {"net.delivered_ratio", ratio(delivered, transmitted), "ratio"},
      {"gfw.middlebox_s", median(middlebox), "s"},
      {"gfw.middlebox_calls", count(last.middlebox_calls), "count"},
      {"gfw.flows_inspected", inspected, "count"},
      {"gfw.flows_flagged", flagged, "count"},
      {"gfw.flag_ratio", ratio(flagged, inspected), "ratio"},
      {"gfw.probes", probes, "count"},
      {"gfw.probes_stage2", stage2, "count"},
      {"gfw.probe_data_ratio", ratio(data, probes), "ratio"},
      {"gfw.blocks", blocks, "count"},
      {"gfw.prober_acquisitions", count(last.prober_acquisitions), "count"},
      {"gfw.classifier_s", median(classifier), "s"},
      {"proxy.decrypt_s", median(decrypt), "s"},
      {"proxy.decrypt_bytes", count(last.replay.decrypt_bytes), "bytes"},
      {"proxy.auth_failures", count(last.replay.auth_failures), "count"},
      {"crypto.kdf_s", median(kdf), "s"},
      {"crypto.kdf_calls", count(last.replay.kdf_calls), "count"},
      {"crypto.entropy_s", median(entropy), "s"},
      {"servers.probe_replay_s", median(probe_replay), "s"},
      {"trace.covered_share", median(covered), "ratio"},
      {"trace.replay_share", median(replayed), "ratio"},
      {"trace.overhead", ratio(median(traced_s), median(untraced_s)) - 1.0, "ratio"},
  };
}

int run(const Args& args) {
  const Workload& workload = *args.workload;
  gfw::Scenario scenario = workload.make();
  const int hours = args.hours > 0 ? args.hours : workload.hours;
  scenario.duration = net::hours(hours);
  scenario.base_seed = workload.base_seed ^ args.seed;

  std::string pinned = args.expect_digest;
  if (pinned.empty() && args.seed == 0 && args.hours == 0) pinned = workload.pinned_digest;
  Checker checker(workload.shards, pinned);
  const std::string journal =
      workload.journal ? args.journal_dir + "/" + workload.name + "." +
                             std::to_string(getpid()) + ".ckpt"
                       : "";

  print_host();
  std::cout << "workload: " << workload.name << " seed=" << args.seed
            << " base_seed=" << scenario.base_seed << " hours=" << hours
            << " shards=" << workload.shards << " threads=" << workload.threads
            << " journal=" << (journal.empty() ? "off" : "on")
            << " trace=" << (args.trace ? 1 : 0) << "\n";

  // Untimed warm-up at the other thread count: it triggers CPU-feature
  // dispatch and allocator growth, and it is the reference every timed
  // campaign must reproduce shard by shard.
  const unsigned other_threads = workload.threads == 1 ? 2 : 1;
  const Campaign warmup = run_campaign(workload, scenario, other_threads, journal, nullptr);
  checker.check(warmup, "warm-up");
  checker.set_reference(warmup);

  std::vector<Campaign> untraced;
  std::vector<TracedRun> traced;
  // Peak RSS over a fixed amount of work (the warm-up and the first timed
  // campaign): memory a campaign fails to release would otherwise make
  // a faster build, which fits more campaigns into a run, read as a
  // bigger one.
  double peak_rss_mb = 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    // Only the last traced campaign's result is kept (for its counts), so
    // memory does not grow with the number of campaigns a run fits in.
    untraced.push_back(run_campaign(workload, scenario, workload.threads, journal, nullptr));
    checker.check(untraced.back(), "campaign " + std::to_string(untraced.size()));
    untraced.back().result = {};
    if (untraced.size() == 1) peak_rss_mb = max_rss_mb();
    if (!args.trace) continue;

    Tracer tracer(workload.shards);
    TracedRun run;
    run.campaign = run_campaign(workload, scenario, workload.threads, journal, &tracer);
    checker.check(run.campaign, "traced campaign " + std::to_string(traced.size() + 1));
    for (const auto& shard : tracer.shards()) {
      if (!shard) continue;
      run.middlebox_s += shard->middlebox_s;
      run.middlebox_calls += shard->middlebox_calls;
      run.data_segments += shard->data_segments;
      run.prober_acquisitions += shard->prober_acquisitions;
    }
    run.replay = replay_layers(tracer, run.campaign.result);
    if (!run.replay.codec_round_trip) {
      checker.problem("checkpoint codec round trip changed the bytes");
    }
    if (run.replay.client_flows_decrypted != run.replay.client_flows) {
      checker.problem("replay decrypted " + std::to_string(run.replay.client_flows_decrypted) +
                      " of " + std::to_string(run.replay.client_flows) + " client flows");
    }
    if (!traced.empty()) traced.back().campaign.result = {};
    traced.push_back(std::move(run));
  } while (Clock::now() < deadline);
  if (!journal.empty()) std::remove(journal.c_str());

  std::cout << "campaigns: " << untraced.size() << " untraced, " << traced.size()
            << " traced; digest " << warmup.digest << "\n";
  if (args.trace) {
    const ReplayResult& replay = traced.back().replay;
    std::cout << "replay: " << replay.client_flows_decrypted << " of "
              << replay.client_flows << " non-probe client flows decrypted; "
              << replay.probe_payloads << " probe payloads replayed\n";
  } else {
    std::cout << "shards_failed_ratio: "
              << number(ratio(checker.failed(), checker.attempted()))
              << " (" << checker.failed() << " of " << checker.attempted() << " shards)\n";
  }

  const bool correct = checker.ok();
  print_result(correct, checker,
               args.trace ? per_layer(untraced, traced) : end_to_end(untraced, peak_rss_mb));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  try {
    return campaignbench::run(campaignbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "campaign_bench: " << error.what() << "\n";
    return 1;
  }
}
