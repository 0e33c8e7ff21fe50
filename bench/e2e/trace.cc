#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

namespace e2e {

namespace {

// Parent of each data-path span within one tuple's tree. The source thread's
// emit of a tuple ends before the worker picks the tuple up, so it nests in
// the handoff; state access and the CPU burn nest in the operator call.
const char* ParentOf(const char* name) {
  static const char* const kParents[][2] = {
      {"gen", "tuple"},         {"exec.handoff", "tuple"},
      {"exec.emit", "exec.handoff"}, {"op", "tuple"},
      {"state.get", "op"},      {"op.cpu", "op"},
  };
  for (const auto& p : kParents) {
    if (std::strcmp(p[0], name) == 0) return p[1];
  }
  return nullptr;
}

bool IsAsync(const char* name) {
  return std::strcmp(name, "tuple") == 0 ||
         std::strcmp(name, "exec.handoff") == 0;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Track>& tracks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  auto sep = [&]() {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (size_t i = 0; i < tracks.size(); ++i) {
    const int tid = static_cast<int>(i) + 1;
    sep();
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 tid, tracks[i].thread_name.c_str());
    for (const Span& s : *tracks[i].spans) {
      sep();
      if (IsAsync(s.name)) {
        // Async begin/end pairs share the tuple id, so the handoff nests
        // under the tuple's root span on one async track.
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"tuple\", \"ph\": \"b\", "
                     "\"id\": %" PRId64 ", \"ts\": %.3f, \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"tuple\": %" PRId64 "}},\n"
                     "{\"name\": \"%s\", \"cat\": \"tuple\", \"ph\": \"e\", "
                     "\"id\": %" PRId64 ", \"ts\": %.3f, \"pid\": 1, "
                     "\"tid\": %d}",
                     s.name, s.tuple, Us(s.start), tid, s.tuple, s.name,
                     s.tuple, Us(s.end), tid);
      } else {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                     "\"args\": {\"tuple\": %" PRId64 "}}",
                     s.name, Us(s.start), Us(s.end - s.start), tid, s.tuple);
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void PrintSelfTimeTable(const std::vector<Track>& tracks) {
  std::unordered_map<int64_t, std::vector<const Span*>> by_tuple;
  std::vector<const Span*> all;
  for (const Track& t : tracks) {
    for (const Span& s : *t.spans) {
      all.push_back(&s);
      if (s.tuple >= 0) by_tuple[s.tuple].push_back(&s);
    }
  }
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span* s : all) {
    int64_t covered = 0;
    if (s->tuple >= 0) {
      for (const Span* c : by_tuple[s->tuple]) {
        const char* parent = ParentOf(c->name);
        if (parent == nullptr || std::strcmp(parent, s->name) != 0) continue;
        covered += std::max<int64_t>(
            0, std::min(c->end, s->end) - std::max(c->start, s->start));
      }
    }
    Row& r = rows[s->name];
    ++r.count;
    r.total_ns += s->end - s->start;
    r.self_ns += std::max<int64_t>(0, s->end - s->start - covered);
  }
  std::printf("# per-layer self time (sampled spans)\n");
  std::printf("# %-18s %9s %12s %12s %10s %10s\n", "span", "count",
              "total_ms", "self_ms", "mean_us", "self_us");
  for (const auto& [name, r] : rows) {
    const double n = static_cast<double>(std::max<int64_t>(1, r.count));
    std::printf("# %-18s %9" PRId64 " %12.3f %12.3f %10.3f %10.3f\n",
                name.c_str(), r.count, static_cast<double>(r.total_ns) / 1e6,
                static_cast<double>(r.self_ns) / 1e6,
                static_cast<double>(r.total_ns) / 1e3 / n,
                static_cast<double>(r.self_ns) / 1e3 / n);
  }
}

}  // namespace e2e
