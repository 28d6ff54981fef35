// termibench: one rep of one benchmark workload, or the gen_warm store fill.
//
//   termibench rep --workload NAME --seed N --dir DIR [--trace] [--tiny]
//                  [--falsify]
//   termibench fill --seed N --dir DIR [--tiny]
//
// `rep` prints one JSON object on stdout (see RepJson) and exits 0 even
// when the correctness gate failed: run.py reads `failed` and decides.
// `fill` exits non-zero when the cold run behind the store fails its gate.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "termibench.h"

#ifndef TERMIBENCH_BUILD_TYPE
#define TERMIBENCH_BUILD_TYPE "unspecified"
#endif

namespace {

using termibench::RepOptions;
using termibench::RepResult;
using termilog::JsonEscape;
using termilog::StrCat;

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

template <typename T>
std::string NumberArray(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Number(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string RepJson(const RepResult& r) {
  std::string failures = "[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) failures += ',';
    failures += StrCat("\"", JsonEscape(r.failures[i]), "\"");
  }
  failures += "]";
  std::string layers = "{";
  for (size_t i = 0; i < r.layers.size(); ++i) {
    if (i > 0) layers += ',';
    layers += StrCat("\"", JsonEscape(r.layers[i].first),
                     "\":", Number(r.layers[i].second));
  }
  layers += "}";
  return StrCat(
      "{\"build_type\":\"", JsonEscape(TERMIBENCH_BUILD_TYPE),
      "\",\"attempted\":", r.attempted, ",\"failed\":", r.failed,
      ",\"failures\":", failures, ",\"setup_s\":", NumberArray(r.setup_s),
      ",\"wall_s\":", Number(r.wall_s), ",\"cpu_s\":", Number(r.cpu_s),
      ",\"peak_rss_mb\":", Number(r.peak_rss_mb),
      ",\"requests\":", r.requests, ",\"light_count\":", r.light_count,
      ",\"light_seconds\":", Number(r.light_seconds),
      ",\"light_us\":", NumberArray(r.light_us),
      ",\"heavy_us\":", NumberArray(r.heavy_us), ",\"layers\":", layers, "}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: termibench rep --workload NAME --seed N --dir DIR "
               "[--trace] [--tiny] [--falsify]\n"
               "       termibench fill --seed N --dir DIR [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RepOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--dir" && has_value) {
      options.dir = argv[++i];
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--falsify") {
      options.falsify = true;
    } else {
      return Usage();
    }
  }
  if (options.dir.empty()) return Usage();

  if (command == "fill") return termibench::FillWarmStore(options) ? 0 : 1;
  if (command != "rep") return Usage();

  RepResult result;
  if (options.workload == "corpus_cold") {
    result = termibench::RunCorpusCold(options);
  } else if (options.workload == "gen_cold") {
    result = termibench::RunGenCold(options);
  } else if (options.workload == "gen_warm") {
    result = termibench::RunGenWarm(options);
  } else if (options.workload == "serve_mixed") {
    result = termibench::RunServeMixed(options);
  } else {
    std::fprintf(stderr, "termibench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", RepJson(result).c_str());
  return 0;
}
