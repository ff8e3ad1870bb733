// In-memory span recorder for the benchmark's traced run. Spans are taken
// around the benchmark's own calls into each library layer (and inside the
// executors' step hooks), kept in memory, and written out once at the end.
// A span's layer is its name up to the first '.'. Single-threaded: every
// span is opened and closed on the thread that drives the benchmark.

#ifndef ISHARE_PERFBENCH_TRACE_H_
#define ISHARE_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  int64_t op = -1;  // timed operation the span belongs to, -1 for set-up
};

class Tracer {
 public:
  void set_op(int64_t op) { op_ = op; }

  int Begin(const char* name) {
    spans_.push_back({name, Now(), 0, Top(), op_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end = Now();
    stack_.pop_back();
  }
  // A span whose bounds were stamped by the caller, as a child of the
  // innermost open span.
  void Record(const char* name, double start, double end) {
    spans_.push_back({name, start, end, Top(), op_});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the time the span's direct children cover.
  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    }
    return self;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%d,\"op\":%lld}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   static_cast<long long>(s.op),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  int Top() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int64_t op_ = -1;
};

// RAII span; a no-op when `tracer` is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // ISHARE_PERFBENCH_TRACE_H_
