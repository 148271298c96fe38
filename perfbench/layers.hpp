// Per-layer cost loops: each calls one runtime layer's public API in a tight
// loop and reports the median ns/op over several batches (plus, where the
// cost model charges the layer, the exact instructions/op).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// (metric name, value) in the order measured; names match BENCHMARK.json.
using LayerValues = std::vector<std::pair<std::string, double>>;

/// Runs every layer loop, each under a span named after its metric.
LayerValues run_layer_loops(Spans& spans);

}  // namespace perfbench
