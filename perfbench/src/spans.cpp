#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to [lo, hi].
    std::int64_t covered = 0, run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, name_totals> totals_by_name(
    const std::vector<span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, name_totals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[spans[i].name];
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    ++t.count;
  }
  return out;
}

span_log::scope::scope(span_log& log, std::string name) : log_(log) {
  if (!log_.enabled_) return;
  id_ = static_cast<int>(log_.spans_.size());
  const int parent = log_.open_.empty() ? -1 : log_.open_.back();
  log_.spans_.push_back(span{std::move(name), now_ns(), 0, parent});
  log_.open_.push_back(id_);
}

span_log::scope::~scope() {
  if (id_ < 0) return;
  log_.spans_[static_cast<std::size_t>(id_)].end_ns = now_ns();
  log_.open_.pop_back();
}

bool span_log::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto self = self_times_ns(spans_);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench main\"}}";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    // Span names are the benchmark's own ASCII identifiers; nothing to
    // escape.
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,",
                  double(s.start_ns - t0) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3);
    out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,"
        << "\"tid\":0," << buf << "\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"run\":\"" << run_id_
        << "\",\"self_us\":" << double(self[i]) / 1e3 << "}}";
  }
  out << "\n],\"otherData\":{\"run\":\"" << run_id_ << "\"}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
