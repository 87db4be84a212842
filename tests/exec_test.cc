// Tests for the compiled execution backend (src/exec/): lowering
// determinism, DAG sharing, the fuse and value-numbering rules, register
// allocation, the bytecode register
// machine, the one-pass downward engine, `W` bodies on the windowed
// register machine, and the integration surfaces (BatchEngine::Run,
// PlanCache::ParseCompiled).
//
// The correctness bar throughout is bit-for-bit agreement with the
// interpreter (`Evaluator`) — the compiled engines are alternative
// execution strategies for the same semantics, so every divergence is a
// bug by definition (this is also what the fuzz oracles `exec`/`dexec`
// enforce at campaign scale).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "exec/confine.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tree/generate.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/axis_kernels.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/fragment.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "xpath/rewrite.h"

namespace xptc {
namespace {

using exec::ExecEngine;
using exec::Program;
using testing_util::CorpusTrees;
using testing_util::N;
using testing_util::T;

Bitset Interpret(const Tree& tree, const NodePtr& query) {
  Evaluator evaluator(tree);
  return evaluator.EvalNode(*query);
}

// ---------------------------------------------------------------- lowering

TEST(ExecProgramTest, LoweringIsDeterministic) {
  // Two independent parses hand the lowerer fresh (pointer-distinct) ASTs;
  // the disassembly — instruction sequence, register numbers, layout —
  // must come out identical.
  Alphabet alphabet;
  const char* texts[] = {
      "<child[a]>",
      "not <desc[a and <child[b]>]> or c",
      "<(child[a]/desc)*[b]>",
      "W(<desc[a]/foll[b]>) and <anc[c]>",
      "<((child[a])*)*[b]>",
  };
  for (const char* text : texts) {
    auto first = Program::Compile(N(text, &alphabet));
    auto second = Program::Compile(N(text, &alphabet));
    EXPECT_EQ(first->ToString(alphabet), second->ToString(alphabet))
        << "non-deterministic lowering of " << text;
  }
}

TEST(ExecProgramTest, DagSharingCollapsesRepeatedSubexpressions) {
  // The same subexpression written four times: hash-consing must collapse
  // it onto one computation, visible as lowering-memo hits and an
  // instruction count well below the AST size.
  Alphabet alphabet;
  const std::string repeated = "<child[a]/desc[b and <child[c]>]>";
  const std::string text = "(" + repeated + " and " + repeated + ") or (" +
                           repeated + " and not " + repeated + ")";
  auto program = Program::Compile(N(text, &alphabet));
  const exec::CompileStats& stats = program->stats();
  EXPECT_GT(stats.dag_hits, 0);
  EXPECT_LT(stats.num_instrs, stats.ast_nodes);
  // Sanity: sharing must not change the answer.
  Tree tree = T("a(b(c), a(b, c), c(a(b(c))))", &alphabet);
  ExecEngine engine(tree);
  NodePtr query = N(text, &alphabet);
  EXPECT_EQ(engine.EvalGeneral(*Program::Compile(query)),
            Interpret(tree, query));
}

// The op mnemonic of each instruction of `program`, in layout order.
std::vector<std::string> Ops(const Program& program, const Alphabet& alphabet) {
  std::vector<std::string> ops;
  for (int i = 0; i < static_cast<int>(program.code().size()); ++i) {
    const std::string ins = program.InstrToString(i, alphabet);
    const size_t begin = ins.find("= ") + 2;
    ops.push_back(ins.substr(begin, ins.find(' ', begin) - begin));
  }
  return ops;
}

int CountOp(const Program& program, const Alphabet& alphabet,
            const std::string& op) {
  const std::vector<std::string> ops = Ops(program, alphabet);
  return static_cast<int>(std::count(ops.begin(), ops.end(), op));
}

TEST(ExecProgramTest, NotOperandsFuseIntoAndNot) {
  Alphabet alphabet;
  auto program = Program::Compile(N("a and not b", &alphabet));
  EXPECT_EQ(Ops(*program, alphabet),
            (std::vector<std::string>{"label", "label", "andnot"}));

  // A filter `[not a]` inside a star body fuses too; the `label a` it
  // reads is hoisted into main like any predicate.
  program = Program::Compile(N("<(child[not a])*[b]>", &alphabet));
  EXPECT_EQ(program->code().size(), 7u) << program->ToString(alphabet);
  const exec::Instr* star = nullptr;
  for (const exec::Instr& ins : program->code()) {
    if (ins.op == exec::Op::kStar) star = &ins;
  }
  ASSERT_NE(star, nullptr);
  bool andnot_in_body = false;
  for (int i = star->body_begin; i < star->body_end; ++i) {
    andnot_in_body |= program->code()[static_cast<size_t>(i)].op ==
                      exec::Op::kAndNot;
  }
  EXPECT_TRUE(andnot_in_body) << program->ToString(alphabet);
  EXPECT_EQ(CountOp(*program, alphabet, "not"), 0);
}

TEST(ExecProgramTest, NotIsEmittedOnlyWhenReadAsAValue) {
  // The left `not a` is read as a value (the `or` fuses its right operand
  // instead), so one kNot exists; the filter `[not a]` still fuses into an
  // andnot over a's register rather than reading that kNot.
  Alphabet alphabet;
  auto program = Program::Compile(N("not a or not <child[not a]>", &alphabet));
  EXPECT_EQ(CountOp(*program, alphabet, "not"), 1)
      << program->ToString(alphabet);
  EXPECT_EQ(CountOp(*program, alphabet, "andnot"), 1);
  EXPECT_EQ(CountOp(*program, alphabet, "ornot"), 1);
}

TEST(ExecProgramTest, ValueNumberingEmitsEachInstructionOnce) {
  Alphabet alphabet;
  // The `[h]` filter over all nodes is needed by both disjuncts.
  auto program =
      Program::Compile(N("<foll[g and <child[h]>]> or <prec[h]>", &alphabet));
  EXPECT_EQ(program->code().size(), 10u) << program->ToString(alphabet);
  // Commuted conjunctions are one instruction.
  program = Program::Compile(N("(a and b) or (b and a)", &alphabet));
  EXPECT_EQ(CountOp(*program, alphabet, "and"), 1)
      << program->ToString(alphabet);
}

TEST(ExecProgramTest, ServingBenchmarkBatchTextsKeepTheirInstructionCounts) {
  // The big_batch texts of perfbench/, compiled as the server compiles
  // them (parse, simplify, lower). `instrs` counts the top-level code and
  // every `W` sub-program; `bodies` is within_bodies().size() and
  // `dropped` the `W`s compiled without a window.
  struct Case {
    const char* text;
    size_t instrs;
    size_t bodies;
    int dropped;
  };
  const Case cases[] = {
      {"<(child[not a])*[b]>", 7, 0, 0},
      {"<(child[not (a and <child[b and <child[c]>]>)])*"
       "[d and <child[e and <child[f]>]>]>",
       23, 0, 0},
      {"<(parent)*[c]> and <(child)*[d]>", 8, 0, 0},
      {"<(parent[not e])*[f]>", 7, 0, 0},
      {"<(fsib)*[e]> or <(psib[f])*[g]>", 11, 0, 0},
      {"<desc[a and <child[b]>]> and not <anc[c]>", 12, 0, 0},
      {"<foll[g and <child[h]>]> or <prec[h]>", 10, 0, 0},
      {"W(a or <prec[b]>) and <(child/child)*[g]>", 8, 0, 1},
  };
  Alphabet alphabet;
  size_t total = 0;
  for (const Case& c : cases) {
    auto program = Program::Compile(SimplifyNode(N(c.text, &alphabet)));
    size_t instrs = program->code().size();
    for (const exec::WithinBody& body : program->within_bodies()) {
      instrs += body.program->code().size();
    }
    EXPECT_EQ(instrs, c.instrs)
        << c.text << "\n" << program->ToString(alphabet);
    EXPECT_EQ(program->within_bodies().size(), c.bodies) << c.text;
    EXPECT_EQ(program->stats().windows_dropped, c.dropped) << c.text;
    total += instrs;
  }
  EXPECT_EQ(total, 86u);
}

TEST(ExecProgramTest, RegisterAllocationReusesRegisters) {
  // A long chain of steps defines many SSA values with short live ranges;
  // linear scan must recycle physical registers instead of giving every
  // value its own bitset.
  Alphabet alphabet;
  auto program = Program::Compile(
      N("<child[a]/desc[b]/child[c]/desc[a]/child[b]/desc[c]/child[a]>",
        &alphabet));
  const exec::CompileStats& stats = program->stats();
  EXPECT_GT(stats.num_vregs, stats.num_regs);
  EXPECT_LE(stats.num_regs, 8);
}

TEST(ExecProgramTest, DownwardProgramAttachedExactlyOnDownwardPlans) {
  Alphabet alphabet;
  auto downward =
      Program::Compile(N("<child[a]/desc[b]> and not <dos[c]>", &alphabet));
  ASSERT_NE(downward->downward(), nullptr);
  EXPECT_TRUE(downward->stats().downward);
  EXPECT_GT(downward->stats().bit_ops, 0);

  auto upward = Program::Compile(N("<anc[a]>", &alphabet));
  EXPECT_EQ(upward->downward(), nullptr);
  EXPECT_FALSE(upward->stats().downward);
}

// ------------------------------------------------------------------ engine

TEST(ExecEngineTest, RegisterFileIsReusedAcrossProgramsAndRuns) {
  // One engine, several programs, repeated runs: results must match fresh
  // single-use engines bit for bit (catches any state leaking between runs
  // through the recycled register file).
  Alphabet alphabet;
  Tree tree = T("a(b(a, c(b)), c(a(b), b), a)", &alphabet);
  std::vector<std::shared_ptr<const Program>> programs;
  for (const char* text :
       {"<child[a]>", "<(child)*[b]> and not c", "<desc[c]/anc[b]>",
        "W(<desc[b]/foll[a]>)", "<child[a]>"}) {
    programs.push_back(Program::Compile(N(text, &alphabet)));
  }
  ExecEngine shared(tree);
  for (int round = 0; round < 3; ++round) {
    for (const auto& program : programs) {
      ExecEngine fresh(tree);
      EXPECT_EQ(shared.Eval(*program), fresh.Eval(*program));
      EXPECT_EQ(shared.EvalGeneral(*program), fresh.EvalGeneral(*program));
    }
  }
}

TEST(ExecEngineTest, MatchesInterpreterOnRandomCorpus) {
  // Differential sweep over every dialect the register machine is total
  // on: random (tree, query) pairs, compiled answer vs interpreter answer.
  Alphabet alphabet;
  const std::vector<Tree> trees = CorpusTrees(&alphabet, 4, 20, 77);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  Rng rng(78);
  for (QueryFragment fragment :
       {QueryFragment::kCore, QueryFragment::kRegular,
        QueryFragment::kRegularW}) {
    for (int i = 0; i < 25; ++i) {
      NodePtr query =
          GenerateNode(OptionsForFragment(fragment, 3), labels, &rng);
      auto program = Program::Compile(query);
      std::string error;
      ASSERT_TRUE(exec::VerifyProgram(*program, &error))
          << error << " in " << NodeToString(*query, alphabet);
      for (const Tree& tree : trees) {
        ExecEngine engine(tree);
        ASSERT_EQ(engine.EvalGeneral(*program), Interpret(tree, query))
            << "fragment " << QueryFragmentToString(fragment) << " query "
            << NodeToString(*query, alphabet);
      }
    }
  }
}

TEST(ExecEngineTest, DownwardEngineMatchesGeneralOnRandomDownwardCorpus) {
  Alphabet alphabet;
  const std::vector<Tree> trees = CorpusTrees(&alphabet, 4, 20, 79);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  Rng rng(80);
  int downward_programs = 0;
  for (int i = 0; i < 60; ++i) {
    NodePtr query = GenerateNode(
        OptionsForFragment(QueryFragment::kDownward, 3), labels, &rng);
    auto program = Program::Compile(query);
    ASSERT_NE(program->downward(), nullptr)
        << NodeToString(*query, alphabet);
    ++downward_programs;
    for (const Tree& tree : trees) {
      ExecEngine engine(tree);
      const Bitset reference = Interpret(tree, query);
      ASSERT_EQ(engine.EvalDownward(*program), reference)
          << "downward engine diverged on "
          << NodeToString(*query, alphabet);
      ASSERT_EQ(engine.EvalGeneral(*program), reference)
          << "register machine diverged on "
          << NodeToString(*query, alphabet);
    }
  }
  EXPECT_EQ(downward_programs, 60);
}

TEST(ExecEngineTest, StarScheduleRegressions) {
  // Regression pin for the downward bit-program scheduler: the fixpoint
  // bit of `(child[ψ])*` is defined *after* its chain bits in emission
  // order, so a naive in-order sweep reads it as always-false and the star
  // collapses to `self`. These queries all die without the topological
  // (SCC-aware) schedule; nested stars additionally require the repeated
  // chaotic-iteration rounds.
  Alphabet alphabet;
  const char* queries[] = {
      "<(child[b])*[a]>",
      "<(child)*[a]>",
      "<(desc[b]/child)*[a]>",
      "<((child[b])*)*[a]>",
      "<((child)*/child[b])*[a]>",
      "<(child[<(child[b])*[a]>])*[b]>",
  };
  const char* terms[] = {
      "b(b(b(a)))",                  // chain: star must descend all of it
      "c(b(b(a)), a(b), b(c(a)))",
      "a",
      "b(a(b(a(b(a)))))",
  };
  for (const char* term : terms) {
    Tree tree = T(term, &alphabet);
    ExecEngine engine(tree);
    for (const char* text : queries) {
      NodePtr query = N(text, &alphabet);
      auto program = Program::Compile(query);
      ASSERT_NE(program->downward(), nullptr);
      const Bitset reference = Interpret(tree, query);
      EXPECT_EQ(engine.EvalDownward(*program), reference)
          << text << " on " << term;
      EXPECT_EQ(engine.EvalGeneral(*program), reference)
          << text << " on " << term;
    }
  }
}

// ------------------------------------------------------- downward sweep

Tree Generated(TreeShape shape, int nodes, const std::vector<Symbol>& labels,
               uint64_t seed, int arity = 3) {
  TreeGenOptions options;
  options.num_nodes = nodes;
  options.shape = shape;
  options.arity = arity;
  Rng rng(seed);
  return GenerateTree(options, labels, &rng);
}

// The downward sweep, the register machine and the interpreter agree on
// `query` over `tree`; returns the sweep's transfer entries.
int64_t ExpectSweepAgrees(const Tree& tree, const NodePtr& query,
                          const Alphabet& alphabet) {
  auto program = Program::Compile(query);
  EXPECT_NE(program->downward(), nullptr);
  if (program->downward() == nullptr) return 0;
  ExecEngine engine(tree);
  const Bitset reference = Interpret(tree, query);
  EXPECT_EQ(engine.EvalDownward(*program), reference)
      << NodeToString(*query, alphabet);
  const int64_t entries = engine.last_run().transfer_entries;
  EXPECT_EQ(engine.EvalGeneral(*program), reference)
      << NodeToString(*query, alphabet);
  EXPECT_GT(entries, 0);
  EXPECT_LE(entries, tree.size());
  return entries;
}

TEST(ExecDownwardTest, LoweringValueNumbersRepeatedSubexpressions) {
  // A raw parse: the two `<child[not b]>` are distinct nodes. Each op is
  // emitted once, and the disjunction of one bit with itself is that bit.
  Alphabet alphabet;
  auto program =
      Program::Compile(N("<child[not b]> or <child[not b]>", &alphabet));
  ASSERT_NE(program->downward(), nullptr);
  const std::string listing = program->downward()->ToString(alphabet);
  auto count = [&listing](const std::string& op) {
    int total = 0;
    for (size_t at = listing.find(op); at != std::string::npos;
         at = listing.find(op, at + 1)) {
      ++total;
    }
    return total;
  };
  EXPECT_EQ(count("= not "), 1) << listing;
  EXPECT_EQ(count("= agg "), 1) << listing;
  EXPECT_EQ(count("= or "), 0) << listing;
  for (int bit = 0; bit < program->downward()->num_bits(); ++bit) {
    const std::string b = "b" + std::to_string(bit);
    EXPECT_EQ(listing.find("or " + b + " " + b + "\n"), std::string::npos)
        << listing;
  }
  // Commuted operands are one op too.
  program = Program::Compile(N("<child[a and b]> and <child[b and a]>",
                               &alphabet));
  ASSERT_NE(program->downward(), nullptr);
  EXPECT_EQ(program->downward()->code().size(), 6u)
      << program->downward()->ToString(alphabet);
}

TEST(ExecDownwardTest, SweepMatchesOnServingBatchTextOnDeepTrees) {
  // big_batch's second text, the one that takes the sweep on the
  // serving benchmark's deep trees, at 16k nodes.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 8);
  const NodePtr query = SimplifyNode(
      N("<(child[not (a and <child[b and <child[c]>]>)])*"
        "[d and <child[e and <child[f]>]>]>",
        &alphabet));
  for (const TreeShape shape : {TreeShape::kComb, TreeShape::kCaterpillar}) {
    const Tree tree = Generated(shape, 16384, labels, 5);
    ExpectSweepAgrees(tree, query, alphabet);
  }
}

TEST(ExecDownwardTest, SweepMatchesOnProgramsWiderThanOneWord) {
  // Over 64 state bits each: a boolean chain over 24 labels with one
  // `<desc[a]>` (one K bit, a directly indexed table), and fourteen
  // `<desc[l]>` disjuncts (fifteen K bits, a hashed table).
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 24);
  std::string chain = "<desc[a]> and (";
  std::string descs;
  for (size_t i = 0; i < labels.size(); ++i) {
    const std::string label = alphabet.Name(labels[i]);
    const std::string next = alphabet.Name(labels[(i + 1) % labels.size()]);
    chain += (i == 0 ? "(" : " or (") + label + " and not " + next + ")";
    if (i >= 14) continue;
    if (!descs.empty()) descs += " or ";
    descs += "(<desc[" + label + "]> and not <child[a]>)";
  }
  chain += ")";
  for (const std::string& text : {chain, descs}) {
    const NodePtr query = N(text, &alphabet);
    auto program = Program::Compile(query);
    ASSERT_GT(program->downward()->num_bits(), 64) << text;
    for (const TreeShape shape :
         {TreeShape::kUniformRecursive, TreeShape::kCaterpillar}) {
      ExpectSweepAgrees(Generated(shape, 4096, labels, 6), query, alphabet);
    }
  }
}

TEST(ExecDownwardTest, SweepGrowsItsTransferTableOnManyKeys) {
  // Fourteen `<child[l]>` tests put fourteen bits in K, so the transfer
  // table is hashed; eight children drawn from fourteen labels give each
  // inner node its own aggregate, far more keys than the table starts with.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 14);
  std::string text;
  for (const Symbol label : labels) {
    if (!text.empty()) text += " and ";
    text += "not <child[" + alphabet.Name(label) + "]>";
  }
  const NodePtr query = N(text, &alphabet);
  ASSERT_EQ(Program::Compile(query)->downward()->agg_bits().size(), 14u);
  const Tree tree = Generated(TreeShape::kFullKAry, 16384, labels, 7, 8);
  EXPECT_GT(ExpectSweepAgrees(tree, query, alphabet), 1000);
}

TEST(ExecDownwardTest, TransferEntriesArePinned) {
  // The transfer table is filled on demand, one entry per distinct
  // (label class, K-aggregate) key: deterministic for a fixed program and
  // tree, and never more than one per node.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 8);
  const NodePtr query = SimplifyNode(
      N("<(child[not (a and <child[b and <child[c]>]>)])*"
        "[d and <child[e and <child[f]>]>]>",
        &alphabet));
  const Tree tree = Generated(TreeShape::kUniformRecursive, 4096, labels, 8);
  EXPECT_EQ(ExpectSweepAgrees(tree, query, alphabet), 92);
}

TEST(ExecDownwardTest, OneThreadSweepsThroughEnginesOfEitherSize) {
  // The sweep's buffers belong to the thread, not the engine: one thread
  // alternating sweeps between a 64k-node caterpillar's engine and a
  // 1k-node comb's reuses them from the larger tree to the smaller and
  // back, across two programs with different transfer tables.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 8);
  const Tree big = Generated(TreeShape::kCaterpillar, 65536, labels, 9);
  const Tree small = Generated(TreeShape::kComb, 1024, labels, 10);
  const char* texts[] = {
      "<(child[not a])*[b]>",
      "<(child[not (a and <child[b and <child[c]>]>)])*"
      "[d and <child[e and <child[f]>]>]>",
  };
  ExecEngine big_engine(big);
  ExecEngine small_engine(small);
  for (const char* text : texts) {
    const Query query = Query::FromExpr(N(text, &alphabet));
    const auto program = Program::Compile(query.plan());
    const Bitset big_expected = query.Select(big);
    const Bitset small_expected = query.Select(small);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(big_engine.Eval(*program), big_expected) << text;
      EXPECT_EQ(big_engine.last_run().dispatch,
                ExecEngine::RunInfo::Dispatch::kDownwardSweep);
      EXPECT_EQ(small_engine.Eval(*program), small_expected) << text;
      EXPECT_EQ(small_engine.last_run().dispatch,
                ExecEngine::RunInfo::Dispatch::kDownwardSweep);
    }
  }
}

// ---------------------------------------------------------------- dispatch

// perfbench's splitmix64 of (seed, salt), which seeds its big_batch trees.
uint64_t BigBatchMix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(ExecDispatchTest, ServingBatchCellsPickTheirEngineByTreeHeight) {
  // perfbench's big_batch at seed 1: four 262,144-node trees (uniform,
  // caterpillar, 4-ary, comb) and its texts 0, 1 and 7, the downward ones
  // with a star loop. Eval picks the engine before running: the sweep on
  // the two deep trees, where not one register-machine instruction runs,
  // and the register machine on the two shallow ones.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 8);
  const TreeShape shapes[] = {TreeShape::kUniformRecursive,
                              TreeShape::kCaterpillar, TreeShape::kFullKAry,
                              TreeShape::kComb};
  const int heights[] = {26, 105070, 9, 131072};
  const char* texts[] = {
      "<(child[not a])*[b]>",
      "<(child[not (a and <child[b and <child[c]>]>)])*"
      "[d and <child[e and <child[f]>]>]>",
      "W(a or <prec[b]>) and <(child/child)*[g]>",
  };
  std::vector<std::shared_ptr<const Program>> programs;
  for (const char* text : texts) {
    programs.push_back(Program::Compile(SimplifyNode(N(text, &alphabet))));
    ASSERT_NE(programs.back()->downward(), nullptr) << text;
  }
  for (int t = 0; t < 4; ++t) {
    TreeGenOptions options;
    options.num_nodes = 262144;
    options.shape = shapes[t];
    options.arity = 4;
    Rng rng(BigBatchMix(1, static_cast<uint64_t>(t)));
    const Tree tree = GenerateTree(options, labels, &rng);
    ASSERT_EQ(tree.Height(), heights[t]);
    const bool deep = t == 1 || t == 3;
    ExecEngine engine(tree);
    for (size_t q = 0; q < programs.size(); ++q) {
      const Program& program = *programs[q];
      const Bitset answer = engine.Eval(program);
      const ExecEngine::RunInfo& run = engine.last_run();
      EXPECT_EQ(run.dispatch,
                deep ? ExecEngine::RunInfo::Dispatch::kDownwardSweep
                     : ExecEngine::RunInfo::Dispatch::kRegisterMachine)
          << texts[q] << " on tree " << t;
      EXPECT_EQ(run.tree_height, heights[t]);
      EXPECT_EQ(run.star_round_bound, program.StarRoundBound(heights[t]));
      EXPECT_EQ(run.star_round_budget, program.star_round_budget());
      EXPECT_EQ(run.star_round_bound > run.star_round_budget, deep);
      if (deep) {
        EXPECT_EQ(run.instrs_executed, 0) << texts[q] << " on tree " << t;
        EXPECT_EQ(run.star_rounds_used, 0);
        EXPECT_GT(run.transfer_entries, 0);
      } else {
        EXPECT_GT(run.instrs_executed, 0) << texts[q] << " on tree " << t;
        EXPECT_LE(run.star_rounds_used, run.star_round_bound);
      }
      EXPECT_EQ(answer, deep ? engine.EvalGeneral(program)
                             : engine.EvalDownward(program))
          << texts[q] << " on tree " << t;
    }
  }
}

TEST(ExecDispatchTest, DownwardFragmentPlansKeepAStarLoop) {
  // The downward fuzz fragment conjoins a star over a filtered step, which
  // the simplifier cannot fold into a closure axis, so most simplified
  // plans keep a star loop for the height dispatch and the sweep to run
  // (without it, about 0.15% did).
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  Rng rng(13);
  constexpr int kQueries = 500;
  int with_loop = 0;
  for (int i = 0; i < kQueries; ++i) {
    const Query query = Query::FromExpr(GenerateNode(
        OptionsForFragment(QueryFragment::kDownward, 4), labels, &rng));
    const auto program = Program::Compile(query.plan());
    ASSERT_NE(program->downward(), nullptr);
    if (program->StarRoundBound(0) > 0) ++with_loop;
  }
  EXPECT_GE(with_loop, kQueries * 9 / 10);
}

TEST(ExecDispatchTest, StarRoundsStayWithinTheHeightBound) {
  // On a downward plan a star only climbs, so a register-machine run takes
  // at most R(H) star rounds (DESIGN §10.4) — the theorem Eval's dispatch
  // rests on. Raw generated downward queries keep their star loops (the
  // simplifier would fold most bare-axis stars into closure axes).
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  std::vector<Tree> trees;
  for (const TreeShape shape :
       {TreeShape::kUniformRecursive, TreeShape::kChain,
        TreeShape::kCaterpillar, TreeShape::kComb}) {
    trees.push_back(Generated(shape, 200, labels, 11));
  }
  Rng rng(12);
  int checked = 0;
  for (int i = 0; checked < 150 && i < 20000; ++i) {
    const NodePtr query = GenerateNode(
        OptionsForFragment(QueryFragment::kDownward, 4), labels, &rng);
    auto program = Program::Compile(query);
    ASSERT_NE(program->downward(), nullptr);
    if (program->StarRoundBound(0) == 0) continue;  // no star loop
    ++checked;
    for (const Tree& tree : trees) {
      ExecEngine engine(tree);
      const Bitset answer = engine.EvalGeneral(*program);
      EXPECT_LE(engine.last_run().star_rounds_used,
                program->StarRoundBound(tree.Height()))
          << NodeToString(*query, alphabet) << " at height " << tree.Height();
      EXPECT_EQ(engine.Eval(*program), answer)
          << NodeToString(*query, alphabet);
    }
  }
  EXPECT_EQ(checked, 150);

  // The bound is tight: a star seeded at the bottom of a chain climbs one
  // node per round, H rounds, and one more finds nothing new. With closure
  // collapse off the bare step stays a star loop.
  axis::SetClosureCollapseForTesting(false);
  const NodePtr query = N("<(child)*[b]>", &alphabet);
  auto program = Program::Compile(query);
  axis::ResetClosureCollapseForTesting();
  const Symbol a = alphabet.Intern("a");
  const Symbol b = alphabet.Intern("b");
  TreeBuilder builder;
  for (int i = 0; i < 3000; ++i) builder.Begin(i == 2999 ? b : a);
  for (int i = 0; i < 3000; ++i) builder.End();
  const Tree chain = std::move(builder).Finish().ValueOrDie();
  ExecEngine engine(chain);
  const Bitset answer = engine.EvalGeneral(*program);
  EXPECT_EQ(engine.last_run().star_rounds_used, 3000);
  EXPECT_EQ(program->StarRoundBound(chain.Height()), 3000);
  EXPECT_EQ(engine.Eval(*program), answer);
  EXPECT_TRUE(engine.last_used_downward());
  EXPECT_EQ(answer, Interpret(chain, query));
}

TEST(ExecDispatchTest, HeightLimitIsTheLargestHeightWithinBudget) {
  // R(H) = Σ over star loops of (max(H, 1) + 1)^depth; the limit is the
  // largest H with R(H) ≤ 32 + 2·bit_ops, INT_MAX without a star loop.
  Alphabet alphabet;
  auto program = Program::Compile(N("<(child[a])*[b]>", &alphabet));
  ASSERT_NE(program->downward(), nullptr);
  const int64_t budget = program->star_round_budget();
  EXPECT_EQ(budget, 32 + 2 * program->stats().bit_ops);
  EXPECT_EQ(program->StarRoundBound(0), 2);
  EXPECT_EQ(program->StarRoundBound(9), 10);
  EXPECT_EQ(program->register_height_limit(), budget - 1);

  program = Program::Compile(N("<(child[<(child[a])*[b]>])*[c]>", &alphabet));
  EXPECT_EQ(program->StarRoundBound(9), 10 + 10);  // the inner star is hoisted
  program = Program::Compile(N("<(child[a]/(child[b])*)*[c]>", &alphabet));
  EXPECT_EQ(program->StarRoundBound(9), 10 + 100);
  const int limit = program->register_height_limit();
  EXPECT_LE(program->StarRoundBound(limit), program->star_round_budget());
  EXPECT_GT(program->StarRoundBound(limit + 1), program->star_round_budget());
  program = Program::Compile(
      N("<(child[a]/(child[b]/(child[c])*)*)*[d]>", &alphabet));
  EXPECT_EQ(program->StarRoundBound(9), 10 + 100 + 1000);
  EXPECT_EQ(program->StarRoundBound(1 << 30),  // (2^30 + 1)^3 saturates
            std::numeric_limits<int64_t>::max());

  program = Program::Compile(N("<desc[a]> and not <child[b]>", &alphabet));
  EXPECT_EQ(program->StarRoundBound(100000), 0);
  EXPECT_EQ(program->register_height_limit(),
            std::numeric_limits<int>::max());
}

TEST(ExecDispatchTest, NestedPlusCompilesLinearly) {
  // The parser builds p+ as p/p* with p shared; each `+` is one strict
  // star, so k nested `+` cost O(k) instructions (lowered as a sequence,
  // p would be lowered once per target register: 3·2^k + 1).
  Alphabet alphabet;
  std::string text = "child[not c]";
  for (int k = 0; k < 16; ++k) text = "(" + text + ")+";
  text = "<" + text + "[b]>";
  auto query = Query::Parse(text, &alphabet);
  ASSERT_TRUE(query.ok()) << query.status().message();
  for (const NodePtr& plan : {query->expr(), query->plan()}) {
    auto program = Program::Compile(plan);
    EXPECT_LE(program->code().size(), 2u * 16 + 8)
        << program->ToString(alphabet);
    ASSERT_NE(program->downward(), nullptr);
    EXPECT_LE(program->downward()->code().size(), 2u * 16 + 8);
    int selected = 0;
    for (const Tree& tree : CorpusTrees(&alphabet, 3, 12, 13)) {
      ExecEngine engine(tree);
      const Bitset expected = query->Select(tree);
      selected += expected.Count();
      EXPECT_EQ(engine.EvalGeneral(*program), expected);
      EXPECT_EQ(engine.EvalDownward(*program), expected);
    }
    EXPECT_GT(selected, 0);
  }
  // p+ keeps the seed out: a leaf labelled b has no child-path to a b.
  const Tree tree = T("b(a(b), b)", &alphabet);
  auto program = Program::Compile(N("<(child)+[b]>", &alphabet));
  ExecEngine engine(tree);
  EXPECT_EQ(engine.EvalGeneral(*program),
            Interpret(tree, N("<(child)+[b]>", &alphabet)));
}

// ---------------------------------------------------------------- W bodies

TEST(ExecWithinTest, NestedBodiesMatchInterpreterAndNaive) {
  // `W` bodies run on the windowed register machine, one subtree window
  // per context. Nested bodies with stars, filters and sibling/prec axes
  // on the shapes where windows matter most: a chain (every window a
  // suffix), a caterpillar (deep spine, leaf fringe) and a uniform tree.
  // Every text keeps at least one body that leaves its window (so it runs
  // the windowed pass) next to bodies that compile without one.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  const char* texts[] = {
      "W(<(child[a])*[<anc[b]>]>)",
      "W(<desc[W(<prec[a]>) and <anc[b]>]>)",
      "W(<(fsib[a] | psib)*[W(<child[b]/foll[c]>)]>) or "
      "<anc[W(a and not <prec[b]>)]>",
      "<(child[W(<(right)*[a]>)])*"
      "[W(<desc[b]> and not <desc/(parent)*[c]>)]>",
      "W(W(<prec[a]>) and <(child)*[W(<child/psib[b]>) and <prec[c]>]>)",
      "W(<(child[W(<(prec[b])*[c]>)])*[a]>) and not W(<desc/anc[b]>)",
  };
  Rng rng(4242);
  for (const TreeShape shape :
       {TreeShape::kChain, TreeShape::kCaterpillar,
        TreeShape::kUniformRecursive}) {
    for (const int n : {40, 300}) {
      TreeGenOptions options;
      options.num_nodes = n;
      options.shape = shape;
      const auto tree =
          std::make_shared<const Tree>(GenerateTree(options, labels, &rng));
      TreeCache cache(tree);
      for (const char* text : texts) {
        const NodePtr query = N(text, &alphabet);
        auto program = Program::Compile(query);
        std::string error;
        ASSERT_TRUE(exec::VerifyProgram(*program, &error)) << error;
        ASSERT_FALSE(program->within_bodies().empty());
        const Bitset reference = Interpret(*tree, query);
        if (n <= 96) {
          ASSERT_EQ(EvalNodeNaive(*tree, *query), reference) << text;
        }
        ExecEngine local(*tree);
        EXPECT_EQ(local.EvalGeneral(*program), reference)
            << text << " on " << TreeShapeToString(shape) << " n=" << n;
        // Twice through engines on the shared cache: the first computes
        // (or finds cached sets), the second starts cold but hits them.
        for (int round = 0; round < 2; ++round) {
          ExecEngine shared(*tree, &cache);
          EXPECT_EQ(shared.Eval(*program), reference)
              << text << " round " << round;
          EXPECT_EQ(shared.Eval(*program), reference) << text << " (hit)";
        }
      }
    }
  }
}

TEST(ExecWithinTest, CancelDuringPassStoresNothingAndRerunIsCorrect) {
  // A chain of `a`s with one `b` at the bottom: in every context the star
  // climbs the whole window one round at a time, so the W pass takes
  // ~n²/2 star rounds — long enough for a helper thread to raise the
  // cancel flag once the pass has started. The `anc` step (vacuous here:
  // there is no `c`) leaves the window, so the body keeps its pass.
  Alphabet alphabet;
  const Symbol a = alphabet.Intern("a");
  const Symbol b = alphabet.Intern("b");
  constexpr int kNodes = 1024;
  TreeBuilder builder;
  for (int i = 0; i < kNodes; ++i) builder.Begin(i == kNodes - 1 ? b : a);
  for (int i = 0; i < kNodes; ++i) builder.End();
  const auto tree =
      std::make_shared<const Tree>(std::move(builder).Finish().ValueOrDie());
  TreeCache cache(tree);
  auto program = Program::Compile(
      N("W(<(child[a or b])*[b and not <anc[c]>]>)", &alphabet));
  ASSERT_EQ(program->within_bodies().size(), 1u);
  Bitset expected(kNodes);
  expected.SetAll();  // every context reaches the bottom `b`

  obs::Counter& computed =
      obs::Registry::Default().counter("eval.within_computed");
  const size_t entries_before = cache.within_entries();
  std::atomic<bool> cancel{false};
  ExecEngine engine(*tree, &cache);
  engine.SetCancelFlag(&cancel);
  const int64_t started = computed.value();
  // The wait is bounded: if no pass starts, the test fails, not hangs.
  std::atomic<bool> raised{false};
  std::thread canceller([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (computed.value() == started &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    raised.store(computed.value() != started);
    cancel.store(true);
  });
  engine.Eval(*program);
  canceller.join();
  ASSERT_TRUE(raised.load()) << "the W pass never started";
  EXPECT_TRUE(engine.last_run().deadline_expired);
  EXPECT_EQ(cache.within_entries(), entries_before);

  // The same engine, flag lowered: the pass reruns from scratch (the
  // engine keeps no memo of its own) and stores exactly one set.
  cancel.store(false);
  EXPECT_EQ(engine.Eval(*program), expected);
  EXPECT_FALSE(engine.last_run().deadline_expired);
  EXPECT_EQ(cache.within_entries(), entries_before + 1);
}

TEST(ExecWithinTest, NestingAtTheParserDepthLimitCompilesAndEvaluates) {
  // The deepest `W(... or W(...W(φ)...))` the parser accepts: one
  // sub-program per level, resolved innermost first without recursion in
  // the engine. Each level's `<desc/anc>` leaves its window, so no level
  // compiles without one.
  Alphabet alphabet;
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += "W(<desc/anc> or ";
    return text + "a or <prec[b]>" +
           std::string(static_cast<size_t>(depth), ')');
  };
  int depth = 1;
  while (ParseNode(nested(depth + 1), &alphabet).ok()) ++depth;
  ASSERT_GE(depth, 190);
  const NodePtr query = N(nested(depth), &alphabet);
  auto program = Program::Compile(query);
  std::string error;
  ASSERT_TRUE(exec::VerifyProgram(*program, &error)) << error;
  EXPECT_EQ(static_cast<int>(program->within_bodies().size()), depth);
  Tree tree = T("b(a(b, c(a)), c(b, a(c)), a)", &alphabet);
  ExecEngine engine(tree);
  EXPECT_EQ(engine.Eval(*program), Interpret(tree, query));
}

// ------------------------------------------------------- W confinement

TEST(ExecConfineTest, BodiesKeepTheirWindowExactlyWhenTheyLeaveIt) {
  // `within` is the number of W bodies left to the windowed pass, `dropped`
  // the number compiled without a window; every answer is checked against
  // Query::Select, which runs each W on its window.
  struct Case {
    const char* text;
    size_t within;
    int dropped;
  };
  const Case cases[] = {
      {"W(<aos>)", 0, 1},                 // aos at the root is self
      {"W(<parent>)", 0, 1},              // empty at the root: false
      {"W(<fsib>)", 0, 1},                // likewise
      {"W(<child/parent>)", 0, 1},        // parent from depth 1
      {"W(<dos/parent>)", 1, 0},          // parent from [0, ∞]: mixed
      {"W(<(child/parent)*[a]>)", 0, 1},  // the star is stable at [0, 0]
      {"W(<(parent)*[a]>)", 0, 1},        // ∅* = self
      {"W(<child[<psib[b]>]>)", 0, 1},    // siblings below the root
      {"W(<child[<prec[b]>]>)", 1, 0},    // prec from depth 1 leaves
      // A confined body around a kept one: the outer W goes, the inner
      // (whose `anc` leaves its window) stays.
      {"W(<child[W(<desc/anc[b]>)]>)", 1, 1},
  };
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  Rng rng(2020);
  std::vector<std::shared_ptr<const Tree>> trees;
  for (const TreeShape shape : {TreeShape::kUniformRecursive,
                                TreeShape::kCaterpillar, TreeShape::kComb}) {
    for (const int n : {12, 150}) {
      TreeGenOptions options;
      options.num_nodes = n;
      options.shape = shape;
      trees.push_back(
          std::make_shared<const Tree>(GenerateTree(options, labels, &rng)));
    }
  }
  for (const Case& c : cases) {
    auto program = Program::Compile(N(c.text, &alphabet));
    std::string error;
    ASSERT_TRUE(exec::VerifyProgram(*program, &error)) << error;
    EXPECT_EQ(program->within_bodies().size(), c.within) << c.text;
    EXPECT_EQ(program->stats().windows_dropped, c.dropped) << c.text;
    EXPECT_EQ(program->dropped_windows().size(),
              static_cast<size_t>(c.dropped));
    const Query query = Query::Parse(c.text, &alphabet).ValueOrDie();
    for (const auto& tree : trees) {
      TreeCache cache(tree);
      ExecEngine engine(*tree, &cache);
      EXPECT_EQ(engine.Eval(*program), query.Select(*tree))
          << c.text << " on " << tree->ToTerm(alphabet);
    }
  }
}

TEST(ExecConfineTest, PrecFromDepthOneKeepsItsWindow) {
  // W(<child[<prec[b]>]>) is not <child[<prec[b]>]>: at v the child c
  // precedes b only outside T|v.
  Alphabet alphabet;
  const Tree tree = T("r(x(b),v(c))", &alphabet);
  const NodeId v = 3;
  const Bitset windowed =
      Query::Parse("W(<child[<prec[b]>]>)", &alphabet).ValueOrDie().Select(
          tree);
  const Bitset unwrapped =
      Query::Parse("<child[<prec[b]>]>", &alphabet).ValueOrDie().Select(tree);
  EXPECT_FALSE(windowed.Get(v));
  EXPECT_TRUE(unwrapped.Get(v));
  auto program = Program::Compile(N("W(<child[<prec[b]>]>)", &alphabet));
  ASSERT_EQ(program->within_bodies().size(), 1u);
  ExecEngine engine(tree);
  EXPECT_EQ(engine.Eval(*program), windowed);
}

TEST(ExecConfineTest, PlanStaysTheInputAndADownwardResultSweeps) {
  // `W(a or <prec[b]>)` is `a`: the lowered plan is downward and gets the
  // one-pass sweep, while plan() (the PlanCache key) still holds the W.
  Alphabet alphabet;
  const NodePtr query = N("W(a or <prec[b]>) and <child[c]>", &alphabet);
  auto program = Program::Compile(query);
  EXPECT_TRUE(NodeEquals(*program->plan(), *query));
  EXPECT_TRUE(program->within_bodies().empty());
  ASSERT_EQ(program->dropped_windows().size(), 1u);
  EXPECT_EQ(NodeToString(*program->dropped_windows()[0], alphabet),
            NodeToString(*N("a or <prec[b]>", &alphabet), alphabet));
  ASSERT_NE(program->downward(), nullptr);
  for (const Tree& tree : CorpusTrees(&alphabet, 6, 30, 31)) {
    ExecEngine engine(tree);
    EXPECT_EQ(engine.Eval(*program), Interpret(tree, query));
    EXPECT_EQ(engine.EvalDownward(*program), Interpret(tree, query));
  }
}

TEST(ExecConfineTest, BodyPastTheVisitBudgetKeepsItsWindow) {
  // A balanced conjunction of 2^k copies of `a`, built as a k-deep DAG;
  // the analysis walks its unfolding: at k = 19 that is past the
  // 2^18-visit budget, so the (confined) body keeps its W; at k = 10 it
  // is dropped. Both answer `a`.
  Alphabet alphabet;
  const NodePtr a = N("a", &alphabet);
  const auto balanced = [&a](int k) {
    NodePtr node = a;
    for (int i = 0; i < k; ++i) node = MakeAnd(node, node);
    return MakeWithin(node);
  };
  const Tree tree = T("a(b(a, a), a(c), b)", &alphabet);
  const Bitset expected = Interpret(tree, a);
  for (const auto& [k, within] :
       std::vector<std::pair<int, size_t>>{{10, 0}, {19, 1}}) {
    auto program = Program::Compile(balanced(k));
    EXPECT_EQ(program->within_bodies().size(), within) << "k=" << k;
    ExecEngine engine(tree);
    EXPECT_EQ(engine.Eval(*program), expected) << "k=" << k;
  }
}

TEST(ExecConfineTest, RewrittenPlanIsNeverLarger) {
  // The ∅ folds (⟨∅⟩ = false, p/∅ = ∅/p = ∅[φ] = ∅, ∅ | p = p, ∅* = self,
  // φ ∨ false = φ) keep φ' no larger than W φ.
  Alphabet alphabet;
  for (const char* text :
       {"W(<(left | fsib/child)*[a]> or <parent/child[b]>)",
        "W(<prec[a]> or <foll> or <anc[b]>)", "W(<(psib[a])*/child>)",
        "W(<aos[a]> and not <right>)"}) {
    const NodePtr query = N(text, &alphabet);
    std::vector<NodePtr> dropped;
    const NodePtr rewritten =
        exec::ConfineWindows(query, exec::ConfineRules::kExact, &dropped);
    EXPECT_EQ(dropped.size(), 1u) << text;
    EXPECT_LT(NodeSize(*rewritten), NodeSize(*query))
        << text << " -> " << NodeToString(*rewritten, alphabet);
  }
}

// ------------------------------------------------------------- integration

TEST(ExecIntegrationTest, BatchRunMatchesInterpreter) {
  Alphabet alphabet;
  Rng rng(81);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  std::vector<Query> queries;
  for (const char* text :
       {"<child[a]>", "<desc[a]> and <desc[b]>", "W(<desc[a]/foll[b]>)",
        "<(child)*[c]>", "not <anc[a]>", "b or <dos[c]>"}) {
    queries.push_back(Query::Parse(text, &alphabet).ValueOrDie());
  }
  BatchOptions options;
  options.num_workers = 2;
  BatchEngine engine(options);
  for (const Tree& tree : CorpusTrees(&alphabet, 4, 24, 82)) {
    engine.AddTree(std::make_shared<Tree>(tree));
  }
  // Twice: the second call runs on warm per-(worker, tree) ExecEngines.
  for (int round = 0; round < 2; ++round) {
    const auto compiled = engine.Run(queries);
    ASSERT_EQ(compiled.size(), static_cast<size_t>(engine.num_trees()));
    for (size_t t = 0; t < compiled.size(); ++t) {
      const Tree& tree = engine.tree_cache(static_cast<int>(t))->tree();
      ASSERT_EQ(compiled[t].size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(compiled[t][q], queries[q].Select(tree))
            << "tree " << t << " query " << q << " round " << round;
      }
    }
  }
}

TEST(ExecIntegrationTest, PlanCacheSharesProgramsByCanonicalRoot) {
  Alphabet alphabet;
  PlanCache cache;
  auto first = cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  auto second = cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  ASSERT_NE(first.program, nullptr);
  EXPECT_EQ(first.program.get(), second.program.get());
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.program_misses, 1u);
  EXPECT_EQ(stats.program_hits, 1u);

  // Different text, same plan after simplification (`W φ ≡ φ` on the
  // downward fragment): the plans are structurally equal, so the program
  // is shared and no second lowering runs.
  auto rewritten = cache.ParseCompiled("W(<child[a]>)", &alphabet)
                       .ValueOrDie();
  EXPECT_TRUE(NodeEquals(*rewritten.query->plan(), *first.query->plan()));
  EXPECT_EQ(rewritten.program.get(), first.program.get());
  stats = cache.stats();
  EXPECT_EQ(stats.program_misses, 1u);
  EXPECT_EQ(stats.program_hits, 2u);

  // A genuinely new plan lowers anew, and the timer moves only on misses.
  auto other = cache.ParseCompiled("<desc[b]>", &alphabet).ValueOrDie();
  EXPECT_NE(other.program.get(), first.program.get());
  EXPECT_EQ(cache.stats().program_misses, 2u);
  EXPECT_GE(cache.stats().lowering_seconds, 0.0);
}

TEST(ExecIntegrationTest, PlanCachePurgeDropsPrograms) {
  Alphabet alphabet;
  PlanCache cache;
  cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  ASSERT_EQ(cache.stats().program_misses, 1u);
  cache.Purge(&alphabet);
  cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  EXPECT_EQ(cache.stats().program_misses, 2u);
}

TEST(ExecIntegrationTest, CompiledProgramOutlivesCacheEviction) {
  Alphabet alphabet;
  PlanCache cache(/*capacity=*/1);
  auto held = cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  cache.ParseCompiled("<desc[b]>", &alphabet).ValueOrDie();  // evicts
  // The handed-out program stays usable after its LRU entry is gone.
  Tree tree = T("a(a, b)", &alphabet);
  ExecEngine engine(tree);
  EXPECT_EQ(engine.Eval(*held.program),
            Interpret(tree, held.query->plan()));
}

}  // namespace
}  // namespace xptc
