// The repository benchmark program. One workload per process:
//
//   tpnr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>] [--git-sha <sha>]
//
// Runs rounds of the workload until `seconds` have passed (at least
// kMinRounds), checks every round's outputs, and prints a metadata record
// and then, as the last line, the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
// round runs twice, untraced then traced on the same seed, and the metrics
// are the per-layer ones (see METRICS.md). Exits 1 when a check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

constexpr std::size_t kMinRounds = 3;
/// Hard stop for the round loop, well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;

struct Workload {
  const char* name;
  Round (*round)(std::uint64_t, bool);
  ProbeSizes probe_sizes;
  unsigned threads;  ///< engine worker threads it runs
};

const Workload kWorkloads[] = {
    {"fleet_store", fleet_store_round, {1024, 256, 256}, 2},
    {"object_lifecycle", object_lifecycle_round, {1024, 256 << 10, 4 << 10},
     1},
    {"transport_chaos", transport_chaos_round, {1024, 1024, 1024}, 1},
};

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"op_per_s", "1/s"},       {"mib_per_s", "MiB/s"},
    {"p50_sim_ms", "ms"},      {"p99_sim_ms", "ms"},
    {"wire_bytes_per_op", "B"}, {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

const Metric kPerLayer[] = {
    {"runtime.run_s", "s"},
    {"runtime.events_per_op", "count"},
    {"runtime.events_per_s", "1/s"},
    {"runtime.parallel_round_share", "share"},
    {"runtime.cross_shard_share", "share"},
    {"crypto_service.jobs_per_flush", "count"},
    {"crypto_service.inline_jobs", "count"},
    {"crypto_service.verify_group_size", "count"},
    {"crypto.private_ops_per_op", "count"},
    {"crypto.modmuls_per_op", "count"},
    {"crypto.verify_memo_hit_share", "share"},
    {"crypto.rsa_private_us", "us"},
    {"crypto.rsa_public_us", "us"},
    {"crypto.oaep_decrypt_us", "us"},
    {"crypto.lane_fill", "count"},
    {"crypto.scalar_block_share", "share"},
    {"crypto.sha256_mib_per_s", "MiB/s"},
    {"crypto.sha256_mb_mib_per_s", "MiB/s"},
    {"crypto.merkle_build_ms_per_mib", "ms/MiB"},
    {"crypto.private_share_est", "share"},
    {"storage.tree_reuse_share.fit", "share"},
    {"storage.tree_reuse_share.spill", "share"},
    {"common.copy_bytes_per_user_byte", "B/B"},
    {"net.msgs_per_op", "count"},
    {"net.audit_bytes_per_audit", "B"},
    {"net.retransmit_share", "share"},
    {"net.spurious_share", "share"},
    {"net.dups_suppressed_per_msg", "count"},
    {"nr.issue_us_per_op", "us"},
    {"nr.rejected", "count"},
    {"nr.resolved_share", "share"},
    {"nr.dir_lookups_per_op", "count"},
    {"audit.retries", "count"},
    {"audit.no_responses", "count"},
    {"dyn.wire_bytes_per_mutation", "B"},
    {"dyn.receipts_resent", "count"},
    {"persist.append_us", "us"},
    {"persist.device_bytes_per_payload_byte", "B/B"},
    {"persist.flushes_per_op", "count"},
    {"persist.recover_ms", "ms"},
    {"phase.write_mib_per_s", "MiB/s"},
    {"phase.read_mib_per_s", "MiB/s"},
    {"phase.audit_per_s", "1/s"},
    {"phase.mutate_per_s", "1/s"},
    {"trace.overhead_share", "share"},
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile_ms(std::vector<common::SimTime> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index =
      std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  return static_cast<double>(values[index]) /
         static_cast<double>(common::kMillisecond);
}

/// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
/// which carries over the high-water mark of the process that exec'd this
/// one, VmHWM covers only this program's address space. 0 if unreadable.
std::uint64_t peak_rss_kib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib;
}

template <typename Fn>
double median_of(const std::vector<Round>& rounds, Fn fn) {
  std::vector<double> values;
  for (const Round& r : rounds) values.push_back(fn(r));
  return median(values);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: tpnr_perfbench --workload "
               "<fleet_store|object_lifecycle|transport_chaos> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::string workload_name, trace_out, git_sha = "unknown";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace_flag = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') seconds = -1.0;
    } else if (key == "--trace") {
      trace_flag = std::strcmp(value, "0") == 0   ? 0
                   : std::strcmp(value, "1") == 0 ? 1
                                                  : -1;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing or malformed --seed");
  if (!(seconds > 0.0)) return usage("missing or non-positive --seconds");
  if (trace_flag < 0) return usage("--trace must be 0 or 1");
  const bool traced = trace_flag == 1;

  std::vector<Round> plain, with_trace;
  std::vector<std::string> errors;
  const auto loop_start = Clock::now();
  for (std::uint64_t r = 0;
       (r < kMinRounds || seconds_since(loop_start) < seconds) &&
       seconds_since(loop_start) < kMaxLoopSeconds;
       ++r) {
    const std::uint64_t s = round_seed(seed, r);
    plain.push_back(workload->round(s, false));
    for (const std::string& e : plain.back().errors) errors.push_back(e);
    // Only the first kMinRounds rounds' latencies are reported; keeping
    // later ones would grow the process with the round count.
    if (r >= kMinRounds) {
      std::vector<common::SimTime>().swap(plain.back().latencies);
    }
    if (traced) {
      with_trace.push_back(workload->round(s, true));
      for (const std::string& e : with_trace.back().errors) errors.push_back(e);
      if (with_trace.back().digest != plain.back().digest) {
        errors.push_back("round " + std::to_string(r) +
                         ": traced and untraced outcome digests differ");
      }
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* rounds : {&plain, &with_trace}) {
    for (const Round& round : *rounds) {
      attempted += round.attempted;
      failed += round.failed;
    }
  }

  std::map<std::string, double> values;
  const Metric* metrics = kEndToEnd;
  std::size_t n_metrics = std::size(kEndToEnd);
  if (!traced) {
    // Simulated latency and wire bytes are deterministic per round seed;
    // taking them from the first kMinRounds rounds (always run) makes them
    // a function of --seed alone, independent of host speed.
    std::vector<common::SimTime> latencies;
    std::uint64_t wire = 0, completed = 0;
    for (std::size_t i = 0; i < kMinRounds && i < plain.size(); ++i) {
      latencies.insert(latencies.end(), plain[i].latencies.begin(),
                       plain[i].latencies.end());
      wire += plain[i].wire_bytes;
      completed += plain[i].completed;
    }
    // Round 0 warms the heap, caches and lazily built process state; the
    // rates exclude it (its set-up and checks still count).
    const std::vector<Round> warm(plain.begin() + (plain.size() > 1 ? 1 : 0),
                                  plain.end());
    values["op_per_s"] =
        median_of(warm, [](const Round& r) { return r.ops / r.op_wall_s; });
    values["mib_per_s"] =
        median_of(warm, [](const Round& r) { return r.mib / r.mib_wall_s; });
    values["p50_sim_ms"] = quantile_ms(latencies, 0.50);
    values["p99_sim_ms"] = quantile_ms(latencies, 0.99);
    values["wire_bytes_per_op"] =
        completed == 0 ? 0.0
                       : static_cast<double>(wire) /
                             static_cast<double>(completed);
    values["peak_rss_mib"] = static_cast<double>(peak_rss_kib()) / 1024.0;
    values["setup_s"] =
        median_of(plain, [](const Round& r) { return r.setup_s; });
  } else {
    metrics = kPerLayer;
    n_metrics = std::size(kPerLayer);
    for (const Metric& m : kPerLayer) values[m.name] = 0.0;
    std::map<std::string, std::vector<double>> layer;
    for (const Round& round : with_trace) {
      for (const auto& [name, value] : round.layer) {
        layer[name].push_back(value);
      }
    }
    for (const Round& round : plain) {
      for (const auto& [name, value] : round.phase) {
        layer[name].push_back(value);
      }
    }
    for (auto& [name, samples] : layer) values[name] = median(samples);
    trace::enable(true);
    auto probes = crypto_probes(workload->probe_sizes);
    trace::enable(false);
    if (probes.erase("crypto.probe_failed") != 0) {
      errors.push_back("a crypto probe returned a wrong result");
    }
    for (const auto& [name, value] : probes) values[name] = value;
    // An estimate: private ops at the probed single-op cost, over the
    // engine threads' time in Network::run.
    const double rsa_private_s = values["crypto.rsa_private_us"] * 1e-6;
    const double threads = workload->threads;
    values["crypto.private_share_est"] = median_of(
        with_trace, [rsa_private_s, threads](const Round& r) {
          const auto it = r.layer.find("runtime.run_s");
          return it == r.layer.end() || it->second <= 0.0
                     ? 0.0
                     : r.private_ops * rsa_private_s / (it->second * threads);
        });
    values["trace.overhead_share"] =
        median_of(with_trace, [](const Round& r) { return r.run_wall_s; }) /
            median_of(plain, [](const Round& r) { return r.run_wall_s; }) -
        1.0;
    if (!trace_out.empty()) {
      const long spans = trace::write_chrome_json(
          trace_out, {{"workload", workload->name},
                      {"seed", std::to_string(seed)},
                      {"git_sha", git_sha}});
      if (spans < 0) errors.push_back("could not write " + trace_out);
    }
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (std::size_t i = 0; i < n_metrics; ++i) {
      known = known || name == metrics[i].name;
    }
    if (!known) errors.push_back("unlisted metric " + name);
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " not finite");
    }
  }

  const bool correct = errors.empty() && failed == 0;
  if (correct == false && failed == 0) failed = 1;
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", errors[i].c_str());
  }

  std::string round_rates;
  for (const Round& r : plain) {
    round_rates += (round_rates.empty() ? "" : ",") +
                   json_number(r.ops / r.op_wall_s);
  }
  std::printf(
      "{\"record\":\"perfbench\",\"workload\":%s,\"seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d,\"rounds\":%zu,\"threads\":%u,"
      "\"nproc\":%u,\"compiler\":%s,\"git_sha\":%s,"
      "\"round_op_per_s\":[%s]}\n",
      json_string(workload->name).c_str(),
      static_cast<unsigned long long>(seed), json_number(seconds).c_str(),
      trace_flag, plain.size(), workload->threads,
      std::thread::hardware_concurrency(), json_string(kCompiler).c_str(),
      json_string(git_sha).c_str(), round_rates.c_str());
  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < n_metrics; ++i) {
    if (i > 0) line += ",";
    line += json_string(metrics[i].name) + ":{\"value\":" +
            json_number(values[metrics[i].name]) +
            ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
