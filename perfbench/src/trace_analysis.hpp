// Per-layer attribution of a traced run.
//
// The traced run exports the library's in-memory trace as Chrome JSON
// (trace::to_json). This file reads the complete ("X") span events back
// and computes each span's self time: its duration minus the part of its
// interval covered by the spans nested inside it on the same lane (thread).
// The TaskPool's per-task spans are transparent: work a task does belongs
// to the layer that fanned it out.
//
// Layer shares are taken on the main thread's lane. There every instant of
// a traced operation is inside exactly one innermost span, so the shares
// are a wall-time breakdown: time the main thread spent waiting on a fan-out is
// charged to the layer that started it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string cat;
  std::uint32_t lane = 0;
  double start_us = 0.0;
  double dur_us = 0.0;

  [[nodiscard]] double end_us() const noexcept { return start_us + dur_us; }
};

/// Complete-span events of a Chrome trace-event JSON document, in file
/// order. Throws std::runtime_error on malformed JSON.
[[nodiscard]] std::vector<SpanRecord> parse_chrome_spans(
    const std::string& json);

/// The layer a span belongs to. Spans the benchmark records carry the
/// category "bench.<layer>"; the library's own spans are mapped by their
/// category ("dynamic" is the runtime layer's dynamic executor).
[[nodiscard]] std::string layer_of(const std::string& cat);

/// Self time of every span, index-aligned with `spans` (0 for pool tasks).
[[nodiscard]] std::vector<double> self_times_us(
    const std::vector<SpanRecord>& spans);

/// Self time summed per layer over the spans on `lane` that start inside
/// [window_start_us, window_end_us).
[[nodiscard]] std::map<std::string, double> layer_self_us(
    const std::vector<SpanRecord>& spans, const std::vector<double>& self_us,
    std::uint32_t lane, double window_start_us, double window_end_us);

}  // namespace perfbench
