#include "taskbench/graph_spec.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/random.h"

namespace versa::taskbench {
namespace {

/// Largest power of two <= n, at least `floor`.
std::uint32_t pow2_floor(std::uint32_t n, std::uint32_t floor) {
  std::uint32_t p = floor;
  while (p * 2 <= n) p *= 2;
  return p;
}

std::uint32_t log2_exact(std::uint32_t pow2) {
  std::uint32_t k = 0;
  while ((1u << k) < pow2) ++k;
  return k;
}

/// kTree's active-width triangle wave: width, width/2, ..., 1, 2, ...,
/// width, width/2, ... (strictly alternating between shrink and grow for
/// any power-of-two width >= 2).
std::uint32_t tree_active(std::uint32_t width, std::uint32_t k,
                          std::uint32_t step) {
  const std::uint32_t pos = step % (2 * k);
  return pos <= k ? width >> pos : width >> (2 * k - pos);
}

/// Per-family RNG stream: the seed is mixed with the normalized shape so
/// two parameter sets never share a parent stream by accident.
Rng family_rng(const TaskBenchParams& p) {
  std::uint64_t mix = p.seed;
  mix = mix * 0x100000001b3ull ^ static_cast<std::uint64_t>(p.family);
  mix = mix * 0x100000001b3ull ^ p.width;
  mix = mix * 0x100000001b3ull ^ p.steps;
  mix = mix * 0x100000001b3ull ^ p.fan;
  return Rng(mix);
}

}  // namespace

const char* to_string(GraphFamily family) {
  switch (family) {
    case GraphFamily::kTrivial: return "trivial";
    case GraphFamily::kChain: return "chain";
    case GraphFamily::kStencil1D: return "stencil";
    case GraphFamily::kStencil2D: return "stencil2d";
    case GraphFamily::kFft: return "fft";
    case GraphFamily::kTree: return "tree";
    case GraphFamily::kRandomFan: return "random";
  }
  return "?";
}

bool parse_family(const std::string& text, GraphFamily& family) {
  for (const GraphFamily candidate : all_families()) {
    if (text == to_string(candidate)) {
      family = candidate;
      return true;
    }
  }
  return false;
}

std::vector<GraphFamily> all_families() {
  return {GraphFamily::kTrivial,   GraphFamily::kChain,
          GraphFamily::kStencil1D, GraphFamily::kStencil2D,
          GraphFamily::kFft,       GraphFamily::kTree,
          GraphFamily::kRandomFan};
}

TaskBenchParams normalized(const TaskBenchParams& params) {
  TaskBenchParams p = params;
  if (p.width == 0) p.width = 1;
  if (p.steps == 0) p.steps = 1;
  if (p.fan == 0) p.fan = 1;
  switch (p.family) {
    case GraphFamily::kFft:
    case GraphFamily::kTree:
      p.width = pow2_floor(std::max(p.width, 2u), 2);
      break;
    case GraphFamily::kStencil2D: {
      std::uint32_t side = 1;
      while ((side + 1) * (side + 1) <= p.width) ++side;
      p.width = side * side;
      break;
    }
    default:
      break;
  }
  p.fan = std::min(p.fan, p.width);
  return p;
}

GraphOracle oracle_for(const TaskBenchParams& params) {
  const TaskBenchParams p = normalized(params);
  GraphOracle oracle;
  const std::uint64_t w = p.width;
  const std::uint64_t spans = p.steps - 1;  // timestep transitions
  switch (p.family) {
    case GraphFamily::kTrivial:
      oracle.nodes = w * p.steps;
      oracle.edges = 0;
      oracle.critical_path = 1;
      break;
    case GraphFamily::kChain:
      oracle.nodes = w * p.steps;
      oracle.edges = spans * w;
      oracle.critical_path = p.steps;
      break;
    case GraphFamily::kStencil1D:
      oracle.nodes = w * p.steps;
      // Interior nodes have 3 parents; the two boundary nodes lose one
      // each (w == 1 degenerates to a single self-parent chain).
      oracle.edges = spans * (w == 1 ? 1 : 3 * w - 2);
      oracle.critical_path = p.steps;
      break;
    case GraphFamily::kStencil2D: {
      std::uint64_t side = 1;
      while (side * side < w) ++side;
      // 5-point halo: s² self-parents + 4s² neighbour slots minus the
      // 4s missing off-grid neighbours along each border.
      oracle.nodes = w * p.steps;
      oracle.edges = spans * (w == 1 ? 1 : 5 * side * side - 4 * side);
      oracle.critical_path = p.steps;
      break;
    }
    case GraphFamily::kFft:
      oracle.nodes = w * p.steps;
      oracle.edges = spans * 2 * w;  // every node: self + butterfly partner
      oracle.critical_path = p.steps;
      break;
    case GraphFamily::kTree: {
      const std::uint32_t k = log2_exact(p.width);
      std::uint64_t nodes = p.width;  // step 0
      std::uint64_t edges = 0;
      for (std::uint32_t t = 1; t < p.steps; ++t) {
        const std::uint32_t active = tree_active(p.width, k, t);
        const std::uint32_t previous = tree_active(p.width, k, t - 1);
        nodes += active;
        // Reducing levels give every node two parents; broadcasting
        // levels give every node one.
        edges += active < previous ? 2ull * active : active;
      }
      oracle.nodes = nodes;
      oracle.edges = edges;
      oracle.critical_path = p.steps;
      break;
    }
    case GraphFamily::kRandomFan:
      oracle.nodes = w * p.steps;
      oracle.edges = spans * w * p.fan;
      oracle.critical_path = p.steps;
      break;
  }
  oracle.total_payload_bytes = oracle.edges * p.payload_bytes;
  return oracle;
}

std::pair<std::uint32_t, std::uint32_t> GraphSpec::locate(
    std::uint64_t flat) const {
  VERSA_CHECK_MSG(flat < node_count, "taskbench: flat node id out of range");
  // The last level whose offset is <= flat (offsets are non-decreasing).
  const std::size_t step =
      std::upper_bound(level_offset.begin(), level_offset.end(), flat) -
      level_offset.begin() - 1;
  return {static_cast<std::uint32_t>(step),
          static_cast<std::uint32_t>(flat - level_offset[step])};
}

std::string GraphSpec::canonical_text() const {
  std::string out = "taskbench-graph v1\n";
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "family=%s width=%u steps=%u payload=%llu fan=%u seed=%llu\n",
                to_string(params.family), params.width, params.steps,
                static_cast<unsigned long long>(params.payload_bytes),
                params.fan, static_cast<unsigned long long>(params.seed));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "nodes=%llu edges=%zu\n",
                static_cast<unsigned long long>(node_count), edges.size());
  out += buffer;
  out += "levels=";
  for (std::size_t i = 0; i < level_width.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(level_width[i]);
  }
  out += '\n';
  for (const auto& [from, to] : edges) {
    std::snprintf(buffer, sizeof(buffer), "%llu->%llu:%llu\n",
                  static_cast<unsigned long long>(from),
                  static_cast<unsigned long long>(to),
                  static_cast<unsigned long long>(params.payload_bytes));
    out += buffer;
  }
  return out;
}

GraphSpec generate_graph(const TaskBenchParams& params) {
  GraphSpec spec;
  spec.params = normalized(params);
  const TaskBenchParams& p = spec.params;
  const std::uint32_t k =
      p.family == GraphFamily::kTree ? log2_exact(p.width) : 0;

  spec.level_width.reserve(p.steps);
  spec.level_offset.reserve(p.steps);
  std::uint64_t offset = 0;
  for (std::uint32_t t = 0; t < p.steps; ++t) {
    const std::uint32_t active =
        p.family == GraphFamily::kTree ? tree_active(p.width, k, t) : p.width;
    spec.level_width.push_back(active);
    spec.level_offset.push_back(offset);
    offset += active;
  }
  spec.node_count = offset;

  Rng rng = family_rng(p);
  std::vector<std::uint32_t> parents;
  for (std::uint32_t t = 1; t < p.steps; ++t) {
    const std::uint64_t prev_offset = spec.level_offset[t - 1];
    const std::uint64_t this_offset = spec.level_offset[t];
    const std::uint32_t prev_width = spec.level_width[t - 1];
    for (std::uint32_t i = 0; i < spec.level_width[t]; ++i) {
      parents.clear();
      switch (p.family) {
        case GraphFamily::kTrivial:
          break;
        case GraphFamily::kChain:
          parents.push_back(i);
          break;
        case GraphFamily::kStencil1D:
          if (i > 0) parents.push_back(i - 1);
          parents.push_back(i);
          if (i + 1 < p.width) parents.push_back(i + 1);
          break;
        case GraphFamily::kStencil2D: {
          std::uint32_t side = 1;
          while (side * side < p.width) ++side;
          const std::uint32_t x = i % side;
          const std::uint32_t y = i / side;
          if (y > 0) parents.push_back(i - side);
          if (x > 0) parents.push_back(i - 1);
          parents.push_back(i);
          if (x + 1 < side) parents.push_back(i + 1);
          if (y + 1 < side) parents.push_back(i + side);
          break;
        }
        case GraphFamily::kFft: {
          const std::uint32_t bit = (t - 1) % log2_exact(p.width);
          const std::uint32_t partner = i ^ (1u << bit);
          parents.push_back(std::min(i, partner));
          parents.push_back(std::max(i, partner));
          break;
        }
        case GraphFamily::kTree:
          if (spec.level_width[t] < prev_width) {
            parents.push_back(2 * i);      // reduce
            parents.push_back(2 * i + 1);
          } else {
            parents.push_back(i / 2);      // broadcast
          }
          break;
        case GraphFamily::kRandomFan: {
          while (parents.size() < p.fan) {
            const std::uint32_t candidate =
                static_cast<std::uint32_t>(rng.next_below(prev_width));
            if (std::find(parents.begin(), parents.end(), candidate) ==
                parents.end()) {
              parents.push_back(candidate);
            }
          }
          std::sort(parents.begin(), parents.end());
          break;
        }
      }
      for (const std::uint32_t parent : parents) {
        spec.edges.emplace_back(prev_offset + parent, this_offset + i);
      }
    }
  }
  return spec;
}

std::vector<std::vector<std::uint64_t>> dependence_closure(
    const GraphSpec& spec) {
  const std::size_t words = (spec.node_count + 63) / 64;
  std::vector<std::vector<std::uint64_t>> closure(
      spec.node_count, std::vector<std::uint64_t>(words, 0));
  // Flat ids are topologically ordered (edges only cross one timestep
  // forward) and the edge list is sorted by destination, so one pass
  // accumulates every ancestor set.
  for (const auto& [from, to] : spec.edges) {
    VERSA_CHECK_MSG(from < to, "taskbench: edge against topological order");
    std::vector<std::uint64_t>& into = closure[to];
    const std::vector<std::uint64_t>& ancestors = closure[from];
    for (std::size_t w = 0; w < words; ++w) into[w] |= ancestors[w];
    into[from / 64] |= 1ull << (from % 64);
  }
  return closure;
}

bool closure_reaches(const std::vector<std::vector<std::uint64_t>>& closure,
                     std::uint64_t from, std::uint64_t to) {
  if (to >= closure.size()) return false;
  const std::vector<std::uint64_t>& ancestors = closure[to];
  return (ancestors[from / 64] >> (from % 64)) & 1u;
}

}  // namespace versa::taskbench
