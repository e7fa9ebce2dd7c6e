// transport_chaos: no crypto, only the runtime (event queues, timer wheel)
// and net (fault sampling, ARQ, dedup). Endpoint pairs, each side behind a
// ReliableChannel, run closed request->reply loops of
// 1 KiB messages over the bench_scale chaos link. These layers are under 1%
// of fleet CPU, so a regression in them shows only here.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.h"
#include "common/serial.h"
#include "crypto/hash.h"
#include "net/network.h"
#include "net/reliable.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using common::kMillisecond;
using common::SimTime;

constexpr std::size_t kPairs = 64;
constexpr std::size_t kExchangesPerPair = 400;
constexpr std::size_t kMessageBytes = 1024;
constexpr std::size_t kHeaderBytes = 17;  ///< u64 pair, u64 index, u8 kind
constexpr std::size_t kBodyPool = 16;
constexpr char kTopic[] = "app";
/// A send fails an attempt when its frame or the ack is lost (about 9% on
/// this link), so the default 8 attempts give up on about one send in 10^8
/// -- once in a few dozen runs of this workload, by design of the bounded
/// ARQ. 16 attempts make that unobservable; every other option is default.
constexpr std::size_t kMaxAttempts = 16;

enum Kind : std::uint8_t { kRequest = 1, kReply = 2 };

struct Pair {
  std::string client_name, server_name;
  std::unique_ptr<net::ReliableChannel> client, server;
  std::vector<std::uint8_t> requests_seen, replies_seen;
  std::size_t next = 0;  ///< next request index to send
  SimTime sent_at = 0;   ///< of the request in flight
  std::vector<SimTime> latencies;
  std::uint64_t corrupt = 0;
};

struct World {
  explicit World(std::uint64_t seed) : network(seed) {}
  net::Network network;
  std::vector<Pair> pairs;
  std::vector<common::Bytes> bodies;
};

common::Bytes message(const World& w, std::size_t pair, std::size_t index,
                      Kind kind) {
  common::Bytes out(kMessageBytes);
  const std::uint64_t header[2] = {pair, index};
  std::memcpy(out.data(), header, sizeof(header));
  out[16] = kind;
  const common::Bytes& body = w.bodies[(pair + index + kind) % kBodyPool];
  std::memcpy(out.data() + kHeaderBytes, body.data(),
              kMessageBytes - kHeaderBytes);
  return out;
}

/// Parses and validates an application message; false on any mismatch.
bool parse(const World& w, common::BytesView payload, Kind kind,
           std::size_t& pair, std::size_t& index) {
  if (payload.size() != kMessageBytes || payload[16] != kind) return false;
  std::uint64_t header[2];
  std::memcpy(header, payload.data(), sizeof(header));
  if (header[0] >= kPairs || header[1] >= kExchangesPerPair) return false;
  pair = static_cast<std::size_t>(header[0]);
  index = static_cast<std::size_t>(header[1]);
  const common::Bytes& body = w.bodies[(pair + index + kind) % kBodyPool];
  return std::memcmp(payload.data() + kHeaderBytes, body.data(),
                     kMessageBytes - kHeaderBytes) == 0;
}

void send_request(World& w, std::size_t p) {
  Pair& pair = w.pairs[p];
  pair.sent_at = w.network.now();
  trace::Scope span("net.send");
  if (trace::enabled()) {
    span.set_txn(pair.client_name + "/" + std::to_string(pair.next));
  }
  pair.client->send(pair.server_name, kTopic,
                    message(w, p, pair.next, kRequest));
  ++pair.next;
}

void build(World& w, std::uint64_t seed) {
  crypto::Drbg input(seed);
  net::LinkConfig link;
  link.latency = 5 * kMillisecond;
  link.jitter = 10 * kMillisecond;
  link.loss_probability = 0.05;
  link.duplicate_probability = 0.10;
  link.reorder_probability = 0.05;
  link.reorder_window = 50 * kMillisecond;
  w.network.set_default_link(link);
  for (std::size_t i = 0; i < kBodyPool; ++i) {
    w.bodies.push_back(input.bytes(kMessageBytes - kHeaderBytes));
  }
  net::ReliableOptions options;
  options.max_attempts = kMaxAttempts;
  w.pairs.resize(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    Pair& pair = w.pairs[p];
    pair.client_name = "q-" + std::to_string(p);
    pair.server_name = "r-" + std::to_string(p);
    pair.client = std::make_unique<net::ReliableChannel>(
        w.network, pair.client_name, input.next_u64(), options);
    pair.server = std::make_unique<net::ReliableChannel>(
        w.network, pair.server_name, input.next_u64(), options);
    pair.requests_seen.assign(kExchangesPerPair, 0);
    pair.replies_seen.assign(kExchangesPerPair, 0);
    pair.latencies.reserve(kExchangesPerPair);
    pair.server->attach([&w, p](const net::Envelope& env) {
      Pair& pair = w.pairs[p];
      std::size_t from = 0, index = 0;
      if (!parse(w, env.payload, kRequest, from, index) || from != p) {
        ++pair.corrupt;
        return;
      }
      ++pair.requests_seen[index];
      pair.server->send(pair.client_name, kTopic,
                        message(w, p, index, kReply));
    });
    pair.client->attach([&w, p](const net::Envelope& env) {
      Pair& pair = w.pairs[p];
      std::size_t from = 0, index = 0;
      if (!parse(w, env.payload, kReply, from, index) || from != p ||
          index + 1 != pair.next) {
        ++pair.corrupt;
        return;
      }
      ++pair.replies_seen[index];
      pair.latencies.push_back(w.network.now() - pair.sent_at);
      if (pair.next < kExchangesPerPair) send_request(w, p);
    });
  }
}

}  // namespace

Round transport_chaos_round(std::uint64_t seed, bool traced) {
  Round round;
  const auto setup_start = Clock::now();
  World w(seed);
  build(w, seed);
  round.setup_s = seconds_since(setup_start);

  trace::enable(traced);
  if (traced) trace::window_begin();
  const auto run_start = Clock::now();
  for (std::size_t p = 0; p < kPairs; ++p) {
    w.network.post(w.pairs[p].client_name, 0, [&w, p] { send_request(w, p); });
  }
  {
    const trace::Scope span("runtime.run");
    w.network.run(std::size_t{1} << 28);
  }
  round.run_wall_s = seconds_since(run_start);
  trace::enable(false);

  // Checks: every request and every reply delivered exactly once and
  // intact; the network's conservation invariant holds after the drain.
  common::BinaryWriter digest;
  net::RetryStats retry;
  for (const Pair& pair : w.pairs) {
    round.check(pair.corrupt == 0,
                pair.client_name + " saw corrupt or unexpected messages");
    for (std::size_t i = 0; i < kExchangesPerPair; ++i) {
      for (const std::uint8_t seen :
           {pair.requests_seen[i], pair.replies_seen[i]}) {
        ++round.attempted;
        if (seen == 1) {
          ++round.completed;
        } else {
          ++round.failed;
          round.check(false, pair.client_name + " message " +
                                 std::to_string(i) + " delivered " +
                                 std::to_string(seen) + " times");
        }
      }
    }
    for (const SimTime latency : pair.latencies) {
      round.latencies.push_back(latency);
      digest.i64(latency);
    }
    for (const auto* channel : {pair.client.get(), pair.server.get()}) {
      const net::RetryStats& s = channel->stats();
      retry.accepted += s.accepted;
      retry.transmissions += s.transmissions;
      retry.retransmissions += s.retransmissions;
      retry.spurious_retransmissions += s.spurious_retransmissions;
      retry.dups_suppressed += s.dups_suppressed;
      retry.unreachable += s.unreachable;
    }
  }
  round.check(retry.unreachable == 0, "a send exhausted its attempts");
  const net::NetworkStats& stats = w.network.stats();
  round.check(stats.messages_sent + stats.messages_duplicated ==
                  stats.messages_delivered + stats.messages_dropped_loss +
                      stats.messages_dropped_adversary +
                      stats.messages_dropped_partition +
                      stats.messages_dropped_endpoint_down,
              "network conservation invariant violated");
  digest.u64(stats.messages_sent);
  digest.u64(stats.messages_delivered);
  digest.u64(stats.bytes_delivered);
  round.digest = common::to_hex(crypto::sha256(digest.data()));

  round.ops = static_cast<double>(round.completed);
  round.op_wall_s = round.run_wall_s;
  round.mib = round.ops * kMessageBytes / (1024.0 * 1024.0);
  round.mib_wall_s = round.run_wall_s;
  round.wire_bytes = stats.bytes_delivered;

  if (traced) {
    const double ops = std::max(round.ops, 1.0);
    runtime_layer_metrics(w.network.engine().stats(), trace::totals(), ops,
                          round);
    auto& m = round.layer;
    m["net.msgs_per_op"] = static_cast<double>(stats.messages_delivered) / ops;
    m["net.retransmit_share"] =
        retry.transmissions == 0
            ? 0.0
            : static_cast<double>(retry.retransmissions) /
                  static_cast<double>(retry.transmissions);
    m["net.spurious_share"] =
        retry.retransmissions == 0
            ? 0.0
            : static_cast<double>(retry.spurious_retransmissions) /
                  static_cast<double>(retry.retransmissions);
    m["net.dups_suppressed_per_msg"] =
        static_cast<double>(retry.dups_suppressed) / ops;
  }
  return round;
}

}  // namespace perfbench
