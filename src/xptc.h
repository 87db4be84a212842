#ifndef XPTC_XPTC_H_
#define XPTC_XPTC_H_

/// \file
/// Umbrella header for xptc — a library implementing the systems studied in
/// ten Cate & Segoufin, "XPath, transitive closure logic, and nested tree
/// walking automata" (PODS 2008 / JACM 2010): Core/Regular XPath(W) engines,
/// FO with monadic transitive closure, tree-walking and nested tree-walking
/// automata, bottom-up (regular) tree automata, translations between the
/// formalisms, and bounded decision procedures. The workload layer adds
/// throughput machinery on top: a work-stealing thread pool, a parallel
/// corpus × queries batch engine, per-tree cross-query caches, and a
/// plan cache that shares compiled programs between equal plans.

#include "bta/bta.h"
#include "bta/languages.h"
#include "common/alphabet.h"
#include "common/bitset.h"
#include "common/check.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "compile/compile.h"
#include "compile/to_dfta.h"
#include "logic/fo.h"
#include "logic/fo_eval.h"
#include "logic/fo_parser.h"
#include "logic/xpath_to_fo.h"
#include "sat/axioms.h"
#include "sat/bounded.h"
#include "tree/enumerate.h"
#include "tree/generate.h"
#include "tree/tree.h"
#include "tree/xml.h"
#include "twa/brute.h"
#include "twa/trace.h"
#include "twa/twa.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/engine.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/fragment.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "xpath/rewrite.h"

#endif  // XPTC_XPTC_H_
