#include "workload.hpp"

#include <cstdio>
#include <utility>

#include "compile/registry.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += number(values[i]);
  }
  return out + "]";
}

/// A coordinate on the 1/64 lattice inside (0, 1): short, exact wire text.
double lattice(SplitMix64& rng) {
  return static_cast<double>(1 + rng.below(63)) / 64.0;
}

std::string pick(SplitMix64& rng, const std::vector<std::string>& items) {
  return items[rng.below(items.size())];
}

/// The certification grid: i / 10 for i = 1..9.
std::vector<std::vector<double>> certification_grid() {
  std::vector<std::vector<double>> points;
  for (int i = 1; i <= 9; ++i) points.push_back({i / 10.0});
  return points;
}

std::vector<std::vector<double>> random_points(SplitMix64& rng,
                                               std::size_t count,
                                               std::size_t arity) {
  std::vector<std::vector<double>> points(count);
  for (auto& p : points) {
    for (std::size_t a = 0; a < arity; ++a) p.push_back(lattice(rng));
  }
  return points;
}

/// Render the wire line of a structured request.
void render(Request& r) {
  std::string line = "{";
  if (r.functions.size() == 1) {
    line += "\"function\":\"" + r.functions.front() + "\"";
  } else {
    line += "\"programs\":[";
    for (std::size_t i = 0; i < r.functions.size(); ++i) {
      if (i > 0) line += ",";
      line += "{\"function\":\"" + r.functions[i] + "\"}";
    }
    line += "]";
  }
  std::vector<std::vector<double>> axes(r.arity);
  for (const auto& p : r.points) {
    for (std::size_t a = 0; a < r.arity; ++a) axes[a].push_back(p[a]);
  }
  if (r.arity == 1) {
    line += ",\"xs\":" + array(axes[0]);
  } else if (r.arity == 2) {
    line += ",\"xs\":" + array(axes[0]) + ",\"ys\":" + array(axes[1]);
  } else {
    line += ",\"inputs\":[";
    for (std::size_t a = 0; a < r.arity; ++a) {
      if (a > 0) line += ",";
      line += array(axes[a]);
    }
    line += "]";
  }
  line += ",\"stream_lengths\":[" + std::to_string(r.length) +
          "],\"repeats\":" + std::to_string(r.repeats) +
          ",\"seed\":" + std::to_string(r.seed) + "}";
  r.line = std::move(line);
}

std::vector<std::string> all_registry_ids() {
  std::vector<std::string> ids = oscs::compile::registry_ids();
  for (const auto& id : oscs::compile::registry2_ids()) ids.push_back(id);
  for (const auto& id : oscs::compile::registry_nd_ids()) ids.push_back(id);
  return ids;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kServeSmall, Workload::kServeMixed,
                     Workload::kCompileCold}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kServeSmall:
      return "serve_small";
    case Workload::kServeMixed:
      return "serve_mixed";
    case Workload::kCompileCold:
      return "compile_cold";
  }
  return "?";
}

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

RequestGenerator::RequestGenerator(Workload workload, std::uint64_t seed,
                                   std::size_t client)
    : workload_(workload), rng_(seed * 0x100000001B3ULL + client + 1) {
  if (workload_ == Workload::kCompileCold) {
    // One order per seed, shared by every client and phase of a run.
    SplitMix64 order(seed);
    cycle_ = all_registry_ids();
    for (std::size_t i = cycle_.size(); i > 1; --i) {
      std::swap(cycle_[i - 1], cycle_[order.below(i)]);
    }
  }
}

Request RequestGenerator::next() {
  Request r;
  r.seed = rng_.next() >> 12;
  switch (workload_) {
    case Workload::kServeSmall: {
      r.functions = {pick(rng_, oscs::compile::registry_ids())};
      r.points = random_points(rng_, 1, 1);
      r.length = 256;
      r.repeats = 1;
      break;
    }
    case Workload::kServeMixed: {
      // Mix by request count, out of 20: 5 single 1D, 1 fused K=4 1D,
      // 8 bivariate, 6 three-input.
      r.length = 4096;
      r.repeats = 8;
      const std::size_t kind = rng_.below(20);
      if (kind < 6) {
        std::vector<std::string> ids = oscs::compile::registry_ids();
        const std::size_t k = kind < 5 ? 1 : 4;
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t j = i + rng_.below(ids.size() - i);
          std::swap(ids[i], ids[j]);
          r.functions.push_back(ids[i]);
        }
        r.points = certification_grid();
      } else if (kind < 14) {
        static const std::vector<std::string> kPair = {"mul", "alpha_blend"};
        r.arity = 2;
        r.functions = {pick(rng_, kPair)};
        r.points = random_points(rng_, 9, 2);
      } else {
        static const std::vector<std::string> kTriple = {"rgb_luma",
                                                         "trilinear_mix"};
        r.arity = 3;
        r.functions = {pick(rng_, kTriple)};
        r.points = random_points(rng_, 3, 3);
      }
      break;
    }
    case Workload::kCompileCold: {
      const std::string& id = cycle_[index_++ % cycle_.size()];
      r.functions = {id};
      r.arity = registry_arity(id);
      r.points = random_points(rng_, 3, r.arity);
      r.length = 1024;
      r.repeats = 2;
      break;
    }
  }
  render(r);
  return r;
}

std::size_t registry_size() { return all_registry_ids().size(); }

std::size_t registry_arity(const std::string& id) {
  if (oscs::compile::find_function(id) != nullptr) return 1;
  if (oscs::compile::find_function2(id) != nullptr) return 2;
  if (const auto* fn = oscs::compile::find_function_nd(id)) return fn->arity;
  return 0;
}

std::string setup_probe_line(Workload workload) {
  Request r;
  r.functions = {"sigmoid"};
  r.seed = 1;
  if (workload == Workload::kServeSmall) {
    r.points = {{0.5}};
    r.length = 256;
    r.repeats = 1;
  } else {
    r.points = certification_grid();
    r.length = 4096;
    r.repeats = 8;
  }
  render(r);
  return r.line;
}

}  // namespace perfbench
