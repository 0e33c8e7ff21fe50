// Spans recorded by the benchmark's own code around its calls into each
// layer. Each thread appends to its own vector (no locks on the data path);
// after the run the vectors are written as Chrome trace-event JSON, which
// opens in Perfetto (ui.perfetto.dev) or chrome://tracing, and folded into a
// per-layer self-time table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name;   // Static string; one of the layer names below.
  int64_t start = 0;  // NowNs() stamps.
  int64_t end = 0;
  int64_t tuple = -1;  // Sequence id of the sampled tuple; -1 off the data path.
};

/// The spans of one thread, under the name its track gets in the viewer.
struct Track {
  std::string thread_name;
  const std::vector<Span>* spans = nullptr;
};

/// Writes every track as Chrome trace-event JSON. Per-tuple root spans
/// ("tuple") and the cross-thread "exec.handoff" are async events keyed by
/// the tuple id; the rest are complete events on their thread's track, each
/// carrying the tuple id in args. Returns false if the file cannot be
/// written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<Track>& tracks);

/// Prints, per span name: count, total, self time (duration minus the part
/// covered by its child spans of the same tuple) and mean duration.
void PrintSelfTimeTable(const std::vector<Track>& tracks);

}  // namespace e2e
