// Benchmark-side span recorder. Spans are opened around calls from the
// benchmark's own code into a layer of the program (Network::run, a store
// issued inside a posted lambda, a WAL append, Recovery::replay, a crypto
// probe), kept in memory, and written out at exit as Chrome trace-event
// JSON (Perfetto and chrome://tracing open it offline).
//
// Recording is off unless enable(true) was called, and a disabled Scope
// costs one relaxed load. Spans opened on engine worker threads land in
// per-thread buffers, so recording never takes a lock after a thread's
// first span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench::trace {

void enable(bool on);
[[nodiscard]] bool enabled();

/// Parent for spans opened on a thread with no open span of its own (the
/// engine's worker threads): the main thread's enclosing span, usually the
/// runtime.run span around the Network::run that is executing them.
void set_fallback_parent(std::uint64_t span_id);

/// RAII span. `name` must be a string literal (it is stored by pointer).
/// `txn` groups the spans of one operation; it may be set after opening,
/// once the operation's id is known. A span opened while recording is off
/// copies nothing.
class Scope {
 public:
  explicit Scope(const char* name, std::string_view txn = {});
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_txn(std::string_view txn) {
    if (id_ != 0) txn_ = txn;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::string txn_;
  std::uint64_t id_ = 0;      ///< 0 when recording is off
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Count and total duration of the spans with one name.
struct Totals {
  std::uint64_t count = 0;
  double seconds = 0.0;
  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(count);
  }
};

/// Starts a new accounting window; totals() covers spans closed since.
void window_begin();
/// Per-name totals of the spans closed since window_begin(). Call from the
/// main thread while no engine round is running.
[[nodiscard]] std::map<std::string, Totals> totals();

/// Writes the recorded spans (the first 100000) as Chrome trace-event JSON,
/// with `metadata` and the span counts under "otherData". Returns the
/// number of spans written, or -1 if the file could not be written.
long write_chrome_json(const std::string& path,
                       std::map<std::string, std::string> metadata);

}  // namespace perfbench::trace
