#include "apex/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

// __lsan_ignore_object only exists when the leak-sanitizer runtime is
// linked in (ASan builds), so gate on the compiler's ASan macro, not
// just on header availability.
#if defined(__SANITIZE_ADDRESS__)
#define OCTO_HAS_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OCTO_HAS_LSAN 1
#endif
#endif
#ifndef OCTO_HAS_LSAN
#define OCTO_HAS_LSAN 0
#endif
#if OCTO_HAS_LSAN && __has_include(<sanitizer/lsan_interface.h>)
#include <sanitizer/lsan_interface.h>
#else
#undef OCTO_HAS_LSAN
#define OCTO_HAS_LSAN 0
#endif

#include "common/config.hpp"
#include "common/error.hpp"

namespace octo::apex {

namespace {

/// Escape a string for a JSON string literal (names are ASCII in practice).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

/// One thread's event log.  The owning thread appends and publishes with a
/// release store of head_; readers take a consistent prefix with acquire.
/// Fixed capacity, drop-new on overflow: a published slot is never
/// rewritten, which keeps concurrent dump race-free.
struct thread_buffer {
  explicit thread_buffer(std::size_t cap, int tid_)
      : events(cap), tid(tid_) {}

  std::vector<trace_event> events;
  std::atomic<std::size_t> head{0};
  std::atomic<std::uint64_t> dropped{0};
  std::string name;  ///< guarded by impl::mutex
  int tid;

  void push(const trace_event& ev) {
    const std::size_t h = head.load(std::memory_order_relaxed);
    if (h >= events.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[h] = ev;
    head.store(h + 1, std::memory_order_release);
  }
};

struct trace::impl {
  mutable std::mutex mutex;  ///< guards buffers (list + names) and capacity
  std::vector<std::unique_ptr<thread_buffer>> buffers;
  std::size_t capacity = std::size_t(1) << 16;

  thread_buffer* get_buffer();
};

namespace {

thread_local thread_buffer* tls_buffer = nullptr;

/// Thread name requested before the buffer existed (applied on creation).
std::string& pending_thread_name() {
  static thread_local std::string name;
  return name;
}

}  // namespace

std::atomic<bool>& trace::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

std::chrono::steady_clock::time_point trace::epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

trace::trace() : impl_(new impl) {
  (void)epoch();  // pin the epoch at first instance() call
  // The singleton's constructor must not throw: when OCTO_TRACE arms
  // tracing here, enable()'s error is reported and tracing stays off.
  if (const auto path = config::env("OCTO_TRACE")) {
    try {
      enable(*path);
    } catch (const error& e) {
      std::fprintf(stderr, "apex::trace: %s; tracing stays off\n", e.what());
    }
  }
}

trace& trace::instance() {
  // Leaked on purpose: worker threads may still record during static
  // destruction; the atexit writer below runs before that teardown.
  // LSan would flag it, so declare the leak deliberate.
  static trace* t = [] {
    trace* fresh = new trace();
#if OCTO_HAS_LSAN
    __lsan_ignore_object(fresh);
#endif
    return fresh;
  }();
  return *t;
}

void trace::enable(std::string path) {
  // Checked where tracing is armed, before anything changes: a malformed
  // value ("64x", "0") throws octo::error naming the variable.
  if (const auto cap = config::env_long("OCTO_TRACE_BUFFER", 1, 1L << 24))
    set_buffer_capacity(static_cast<std::size_t>(*cap));
  path_ = std::move(path);
  if (!path_.empty()) {
    static bool atexit_registered = false;
    if (!atexit_registered) {
      atexit_registered = true;
      std::atexit([] { trace::instance().write_to_file(); });
    }
  }
  enabled_flag().store(true, std::memory_order_relaxed);
}

void trace::disable() {
  enabled_flag().store(false, std::memory_order_relaxed);
}

thread_buffer* trace::impl::get_buffer() {
  if (tls_buffer != nullptr) return tls_buffer;
  const std::lock_guard<std::mutex> lock(mutex);
  auto buf = std::make_unique<thread_buffer>(capacity,
                                             static_cast<int>(buffers.size()));
  if (!pending_thread_name().empty()) buf->name = pending_thread_name();
  tls_buffer = buf.get();
  buffers.push_back(std::move(buf));
  return tls_buffer;
}

void trace::set_thread_name(const std::string& name) {
  pending_thread_name() = name;
  if (tls_buffer != nullptr) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    tls_buffer->name = name;
  }
}

void trace::record_span(const char* name, std::uint64_t ts_ns,
                        std::uint64_t dur_ns) {
  if (!enabled()) return;
  impl_->get_buffer()->push({name, ts_ns, dur_ns, trace_event::kind::span});
}

void trace::record_instant(const char* name) {
  if (!enabled()) return;
  impl_->get_buffer()->push({name, now_ns(), 0, trace_event::kind::instant});
}

std::uint64_t trace::write_body(std::ostream& os, int pid,
                                bool& first) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::fixed << std::setprecision(3);
  std::uint64_t total_dropped = 0;
  for (const auto& buf : impl_->buffers) {
    total_dropped += buf->dropped.load(std::memory_order_relaxed);
    if (!buf->name.empty()) {
      os << (first ? "" : ",")
         << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << buf->tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << json_escape(buf->name) << "\"}}";
      first = false;
    }
    const std::size_t n = buf->head.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const trace_event& ev = buf->events[i];
      os << (first ? "" : ",") << "{\"name\":\"" << json_escape(ev.name)
         << "\",\"cat\":\"octo\",\"pid\":" << pid << ",\"tid\":" << buf->tid
         << ",\"ts\":" << static_cast<double>(ev.ts_ns) * 1e-3;
      if (ev.type == trace_event::kind::span)
        os << ",\"ph\":\"X\",\"dur\":" << static_cast<double>(ev.dur_ns) * 1e-3;
      else
        os << ",\"ph\":\"i\",\"s\":\"t\"";
      os << "}";
      first = false;
    }
  }
  os.flags(flags);
  os.precision(precision);
  return total_dropped;
}

void trace::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  const std::uint64_t total_dropped = write_body(os, 0, first);
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
     << total_dropped << "}}\n";
}

bool trace::write_to_file() const {
  if (path_.empty()) return false;
  std::ofstream out(path_);
  if (!out.good()) {
    std::fprintf(stderr, "apex::trace: cannot write %s\n", path_.c_str());
    return false;
  }
  write(out);
  return out.good();
}

std::uint64_t trace::captured() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::uint64_t n = 0;
  for (const auto& buf : impl_->buffers)
    n += buf->head.load(std::memory_order_acquire);
  return n;
}

std::uint64_t trace::dropped() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::uint64_t n = 0;
  for (const auto& buf : impl_->buffers)
    n += buf->dropped.load(std::memory_order_relaxed);
  return n;
}

void trace::clear() {
  // For tests: rewinds every thread's log.  Not safe concurrently with
  // active recording on other threads.
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& buf : impl_->buffers) {
    buf->head.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
}

void trace::set_buffer_capacity(std::size_t events) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (events > 0) impl_->capacity = events;
}

}  // namespace octo::apex
