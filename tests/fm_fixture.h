#ifndef TERMILOG_TESTS_FM_FIXTURE_H_
#define TERMILOG_TESTS_FM_FIXTURE_H_

// Loaders for the corpus-harvested Fourier-Motzkin fixtures, shared by the
// differential tests (tests/fourier_motzkin_test.cc) and the kernel
// benchmark (bench/bench_fm.cc):
//   tests/data/fm_prune_inputs.txt  the largest FM intermediate system that
//       LpPruneRedundant receives on each of the corpus's kernel-bound
//       programs;
//   tests/data/hull_inputs.txt  every lifted system that ConvexHull hands
//       Project on the same programs.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/constraint.h"
#include "util/check.h"

namespace termilog {

struct NamedSystem {
  std::string name;
  ConstraintSystem system;
};

inline std::vector<NamedSystem> LoadNamedSystems(const std::string& path) {
  std::ifstream in(path);
  TERMILOG_CHECK_MSG(in.good(), "cannot open an FM fixture");
  std::vector<NamedSystem> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "system") {
      NamedSystem named;
      int num_vars = 0;
      fields >> named.name >> num_vars;
      named.system = ConstraintSystem(num_vars);
      out.push_back(std::move(named));
      continue;
    }
    TERMILOG_CHECK_MSG(!out.empty() && (head == "ge" || head == "eq"),
                       "malformed FM fixture line");
    std::vector<Rational> values;
    std::string token;
    while (fields >> token) {
      values.push_back(Rational::FromString(token).value());
    }
    ConstraintSystem& system = out.back().system;
    TERMILOG_CHECK(static_cast<int>(values.size()) == system.num_vars() + 1);
    Rational constant = values.back();
    values.pop_back();
    system.Add(Constraint(std::move(values), std::move(constant),
                          head == "eq" ? Relation::kEq : Relation::kGe));
  }
  return out;
}

inline std::vector<NamedSystem> LoadFmPruneInputs() {
  return LoadNamedSystems(TERMILOG_FM_PRUNE_INPUTS);
}

inline std::vector<NamedSystem> LoadHullInputs() {
  return LoadNamedSystems(TERMILOG_HULL_INPUTS);
}

// The columns a lifted hull system over [x (n) | y (n) | lambda] is
// projected onto: x.
inline std::vector<int> HullKeep(const ConstraintSystem& lifted) {
  std::vector<int> keep((lifted.num_vars() - 1) / 2);
  for (size_t i = 0; i < keep.size(); ++i) keep[i] = static_cast<int>(i);
  return keep;
}

}  // namespace termilog

#endif  // TERMILOG_TESTS_FM_FIXTURE_H_
