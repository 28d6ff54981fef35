#ifndef TERMILOG_TERMILOG_H_
#define TERMILOG_TERMILOG_H_

/// Umbrella header for the termilog library: a C++20 implementation of
/// Sohn & Van Gelder, "Termination Detection in Logic Programs using
/// Argument Sizes" (PODS 1991), together with every substrate it needs.
///
/// Typical use:
///
///   #include "termilog/termilog.h"
///
///   auto program = termilog::ParseProgram(source_text);
///   termilog::TerminationAnalyzer analyzer;
///   auto report = analyzer.Analyze(*program, "perm(b,f)");
///   if (report->proved) { ... report->ToString() ... }

#include "baselines/argmap.h"
#include "baselines/naish.h"
#include "baselines/uvg.h"
#include "condinf/condinf.h"
#include "condinf/lattice.h"
#include "constraints/arg_size_db.h"
#include "constraints/inference.h"
#include "core/analyzer.h"
#include "core/certificate.h"
#include "core/dual_builder.h"
#include "core/explain.h"
#include "core/rule_system.h"
#include "corpus/corpus.h"
#include "engine/cached_outcomes.h"
#include "engine/canonical.h"
#include "engine/content_cache.h"
#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/serve.h"
#include "fm/fourier_motzkin.h"
#include "fm/polyhedron.h"
#include "gen/gen.h"
#include "graph/minplus.h"
#include "graph/scc.h"
#include "interp/bottom_up.h"
#include "interp/sld.h"
#include "lp/simplex.h"
#include "net/net.h"
#include "obs/obs.h"
#include "persist/store.h"
#include "program/ast.h"
#include "program/modes.h"
#include "program/parser.h"
#include "rational/rational.h"
#include "term/size.h"
#include "term/term.h"
#include "term/unify.h"
#include "transform/adornment.h"
#include "transform/equality.h"
#include "transform/pipeline.h"
#include "transform/reorder.h"
#include "transform/splitting.h"
#include "transform/unfolding.h"
#include "util/failpoint.h"
#include "util/governor.h"
#include "util/json.h"

#endif  // TERMILOG_TERMILOG_H_
