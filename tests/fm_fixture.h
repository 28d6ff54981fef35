#ifndef TERMILOG_TESTS_FM_FIXTURE_H_
#define TERMILOG_TESTS_FM_FIXTURE_H_

// Loader for tests/data/fm_prune_inputs.txt: the largest Fourier-Motzkin
// intermediate system that LpPruneRedundant receives on each of the
// corpus's kernel-bound programs. Shared by the differential test
// (tests/fourier_motzkin_test.cc) and the kernel benchmark (bench/bench_fm.cc).

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

inline std::vector<NamedSystem> LoadFmPruneInputs(
    const std::string& path = TERMILOG_FM_PRUNE_INPUTS) {
  std::ifstream in(path);
  TERMILOG_CHECK_MSG(in.good(), "cannot open the FM prune-input fixture");
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
                       "malformed FM prune-input fixture line");
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

}  // namespace termilog

#endif  // TERMILOG_TESTS_FM_FIXTURE_H_
