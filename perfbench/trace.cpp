#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {
namespace {

struct Span {
  const char* name = "";
  std::string txn;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
  std::size_t window_mark = 0;      ///< spans.size() at window_begin()
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_fallback_parent{0};

std::mutex g_buffers_mu;  // guards g_buffers
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer* t_buffer = nullptr;

const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *t_buffer;
}

void json_string(std::FILE* out, const std::string& text) {
  std::fputc('"', out);
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_fallback_parent(std::uint64_t span_id) {
  g_fallback_parent.store(span_id, std::memory_order_relaxed);
}

Scope::Scope(const char* name, std::string_view txn) : name_(name) {
  if (!enabled()) return;
  txn_ = txn;
  ThreadBuffer& buf = buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.open.empty()
                ? g_fallback_parent.load(std::memory_order_relaxed)
                : buf.open.back();
  buf.open.push_back(id_);
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = *t_buffer;
  buf.open.pop_back();
  buf.spans.push_back(
      Span{name_, std::move(txn_), id_, parent_, start_ns_, end});
}

void window_begin() {
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buf : g_buffers) buf->window_mark = buf->spans.size();
}

std::map<std::string, Totals> totals() {
  std::map<std::string, Totals> out;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    for (std::size_t i = buf->window_mark; i < buf->spans.size(); ++i) {
      const Span& span = buf->spans[i];
      Totals& t = out[span.name];
      ++t.count;
      t.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return out;
}

long write_chrome_json(const std::string& path,
                       std::map<std::string, std::string> metadata) {
  // Large enough for every span of a fleet or lifecycle run; a
  // transport_chaos run records one span per send and keeps the first ones.
  constexpr std::size_t kMaxSpans = 100000;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::size_t recorded = 0;
  for (const auto& buf : g_buffers) recorded += buf->spans.size();
  const std::size_t to_write = std::min(recorded, kMaxSpans);
  metadata["spans_recorded"] = std::to_string(recorded);
  metadata["spans_written"] = std::to_string(to_write);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return -1;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"otherData\":{", out);
  bool first = true;
  for (const auto& [key, value] : metadata) {
    if (!first) std::fputc(',', out);
    first = false;
    json_string(out, key);
    std::fputc(':', out);
    json_string(out, value);
  }
  std::fputs("},\"traceEvents\":[", out);
  std::size_t written = 0;
  for (const auto& buf : g_buffers) {
    for (const Span& span : buf->spans) {
      if (written == to_write) break;
      if (written > 0) std::fputc(',', out);
      std::fputs("\n{\"ph\":\"X\",\"pid\":1,\"name\":", out);
      json_string(out, span.name);
      std::fprintf(out,
                   ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"txn\":",
                   buf->tid, static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent));
      json_string(out, span.txn);
      std::fputs("}}", out);
      ++written;
    }
  }
  std::fputs("\n]}\n", out);
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok ? static_cast<long>(written) : -1;
}

}  // namespace perfbench::trace
