#include "sat/axioms.h"

#include <string>
#include <tuple>
#include <utility>

namespace xptc {

namespace {

using Paths = std::vector<PathPtr>;
using Nodes = std::vector<NodePtr>;

PathPtr Self() { return MakeAxis(Axis::kSelf); }

std::vector<AxiomScheme> BuildSchemes() {
  std::vector<AxiomScheme> schemes;

  auto path_scheme = [&](std::string name, std::string statement,
                         int path_args, int node_args, auto build) {
    AxiomScheme scheme;
    scheme.name = std::move(name);
    scheme.statement = std::move(statement);
    scheme.num_path_args = path_args;
    scheme.num_node_args = node_args;
    scheme.build_paths = build;
    schemes.push_back(std::move(scheme));
  };
  auto node_scheme = [&](std::string name, std::string statement,
                         int path_args, int node_args, auto build) {
    AxiomScheme scheme;
    scheme.name = std::move(name);
    scheme.statement = std::move(statement);
    scheme.num_path_args = path_args;
    scheme.num_node_args = node_args;
    scheme.build_nodes = build;
    schemes.push_back(std::move(scheme));
  };

  // --- Idempotent semiring laws ------------------------------------------
  path_scheme("union-assoc", "(A|B)|C == A|(B|C)", 3, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeUnion(MakeUnion(p[0], p[1]), p[2]),
                                 MakeUnion(p[0], MakeUnion(p[1], p[2])));
              });
  path_scheme("union-comm", "A|B == B|A", 2, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeUnion(p[0], p[1]),
                                 MakeUnion(p[1], p[0]));
              });
  path_scheme("union-idem", "A|A == A", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeUnion(p[0], p[0]), p[0]);
              });
  path_scheme("seq-assoc", "A/(B/C) == (A/B)/C", 3, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSeq(p[0], MakeSeq(p[1], p[2])),
                                 MakeSeq(MakeSeq(p[0], p[1]), p[2]));
              });
  path_scheme("seq-unit-left", "self/A == A", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSeq(Self(), p[0]), p[0]);
              });
  path_scheme("seq-unit-right", "A/self == A", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSeq(p[0], Self()), p[0]);
              });
  path_scheme("seq-dist-left", "A/(B|C) == A/B | A/C", 3, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(
                    MakeSeq(p[0], MakeUnion(p[1], p[2])),
                    MakeUnion(MakeSeq(p[0], p[1]), MakeSeq(p[0], p[2])));
              });
  path_scheme("seq-dist-right", "(A|B)/C == A/C | B/C", 3, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(
                    MakeSeq(MakeUnion(p[0], p[1]), p[2]),
                    MakeUnion(MakeSeq(p[0], p[2]), MakeSeq(p[1], p[2])));
              });

  // --- Predicate (filter) laws -------------------------------------------
  path_scheme("filter-true", "A[true] == A", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeFilter(p[0], MakeTrue()), p[0]);
              });
  path_scheme("filter-or", "A[phi or psi] == A[phi] | A[psi]", 1, 2,
              [](const Paths& p, const Nodes& n) {
                return std::pair(MakeFilter(p[0], MakeOr(n[0], n[1])),
                                 MakeUnion(MakeFilter(p[0], n[0]),
                                           MakeFilter(p[0], n[1])));
              });
  path_scheme("filter-fuse", "A[phi][psi] == A[phi and psi]", 1, 2,
              [](const Paths& p, const Nodes& n) {
                return std::pair(MakeFilter(MakeFilter(p[0], n[0]), n[1]),
                                 MakeFilter(p[0], MakeAnd(n[0], n[1])));
              });
  path_scheme("filter-seq", "(A/B)[phi] == A/(B[phi])", 2, 1,
              [](const Paths& p, const Nodes& n) {
                return std::pair(MakeFilter(MakeSeq(p[0], p[1]), n[0]),
                                 MakeSeq(p[0], MakeFilter(p[1], n[0])));
              });
  path_scheme("filter-pull", "A[phi]/B == A/(self[phi]/B)", 2, 1,
              [](const Paths& p, const Nodes& n) {
                return std::pair(
                    MakeSeq(MakeFilter(p[0], n[0]), p[1]),
                    MakeSeq(p[0], MakeSeq(MakeTest(n[0]), p[1])));
              });

  // --- Node / boolean laws ------------------------------------------------
  node_scheme("some-union", "<A|B> == <A> or <B>", 2, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSome(MakeUnion(p[0], p[1])),
                                 MakeOr(MakeSome(p[0]), MakeSome(p[1])));
              });
  node_scheme("some-seq", "<A/B> == <A[<B>]>", 2, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSome(MakeSeq(p[0], p[1])),
                                 MakeSome(MakeFilter(p[0], MakeSome(p[1]))));
              });
  node_scheme("some-test", "<self[phi]> == phi", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeSome(MakeTest(n[0])), n[0]);
              });
  node_scheme("double-negation", "not not phi == phi", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeNot(MakeNot(n[0])), n[0]);
              });
  node_scheme("de-morgan", "not (phi and psi) == not phi or not psi", 0, 2,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeNot(MakeAnd(n[0], n[1])),
                                 MakeOr(MakeNot(n[0]), MakeNot(n[1])));
              });
  node_scheme("and-dist", "phi and (psi or chi) == (phi and psi) or (phi and chi)",
              0, 3, [](const Paths&, const Nodes& n) {
                return std::pair(
                    MakeAnd(n[0], MakeOr(n[1], n[2])),
                    MakeOr(MakeAnd(n[0], n[1]), MakeAnd(n[0], n[2])));
              });

  // --- Star laws (Regular XPath) ------------------------------------------
  path_scheme("star-unroll", "A* == self | A/A*", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(
                    MakeStar(p[0]),
                    MakeUnion(Self(), MakeSeq(p[0], MakeStar(p[0]))));
              });
  path_scheme("star-star", "(A*)* == A*", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeStar(MakeStar(p[0])), MakeStar(p[0]));
              });
  path_scheme("star-seq-idem", "A*/A* == A*", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSeq(MakeStar(p[0]), MakeStar(p[0])),
                                 MakeStar(p[0]));
              });

  // --- Transitive-axis laws -----------------------------------------------
  path_scheme("desc-decompose", "desc == child/dos", 0, 0,
              [](const Paths&, const Nodes&) {
                return std::pair(MakeAxis(Axis::kDescendant),
                                 MakeSeq(MakeAxis(Axis::kChild),
                                         MakeAxis(Axis::kDescendantOrSelf)));
              });
  path_scheme("desc-transitive", "desc | desc/desc == desc", 0, 0,
              [](const Paths&, const Nodes&) {
                const PathPtr desc = MakeAxis(Axis::kDescendant);
                return std::pair(MakeUnion(desc, MakeSeq(desc, desc)), desc);
              });
  path_scheme("foll-decompose", "foll == aos/fsib/dos", 0, 0,
              [](const Paths&, const Nodes&) {
                return std::pair(
                    MakeAxis(Axis::kFollowing),
                    MakeSeq(MakeAxis(Axis::kAncestorOrSelf),
                            MakeSeq(MakeAxis(Axis::kFollowingSibling),
                                    MakeAxis(Axis::kDescendantOrSelf))));
              });
  node_scheme("loeb", "<desc[phi]> == <desc[phi and not <desc[phi]>]>", 0, 1,
              [](const Paths&, const Nodes& n) {
                // Well-foundedness: if some descendant satisfies phi, a
                // *deepest* one does.
                auto desc_phi = [&] {
                  return MakeSome(MakeFilter(MakeAxis(Axis::kDescendant),
                                             n[0]));
                };
                return std::pair(
                    desc_phi(),
                    MakeSome(MakeFilter(
                        MakeAxis(Axis::kDescendant),
                        MakeAnd(n[0], MakeNot(desc_phi())))));
              });

  // --- Functionality of parent / immediate siblings -----------------------
  node_scheme("parent-functional",
              "<parent[phi]> and <parent[psi]> == <parent[phi and psi]>", 0,
              2, [](const Paths&, const Nodes& n) {
                const PathPtr parent = MakeAxis(Axis::kParent);
                return std::pair(
                    MakeAnd(MakeSome(MakeFilter(parent, n[0])),
                            MakeSome(MakeFilter(parent, n[1]))),
                    MakeSome(MakeFilter(parent, MakeAnd(n[0], n[1]))));
              });
  node_scheme("right-functional",
              "<right[phi]> and <right[psi]> == <right[phi and psi]>", 0, 2,
              [](const Paths&, const Nodes& n) {
                const PathPtr right = MakeAxis(Axis::kNextSibling);
                return std::pair(
                    MakeAnd(MakeSome(MakeFilter(right, n[0])),
                            MakeSome(MakeFilter(right, n[1]))),
                    MakeSome(MakeFilter(right, MakeAnd(n[0], n[1]))));
              });

  // --- Tree interaction laws ----------------------------------------------
  path_scheme("down-up", "child[phi]/parent == self[<child[phi]>]", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(
                    MakeSeq(MakeFilter(MakeAxis(Axis::kChild), n[0]),
                            MakeAxis(Axis::kParent)),
                    MakeTest(MakeSome(
                        MakeFilter(MakeAxis(Axis::kChild), n[0]))));
              });
  path_scheme("right-left", "right[phi]/left == self[<right[phi]>]", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(
                    MakeSeq(MakeFilter(MakeAxis(Axis::kNextSibling), n[0]),
                            MakeAxis(Axis::kPrevSibling)),
                    MakeTest(MakeSome(
                        MakeFilter(MakeAxis(Axis::kNextSibling), n[0]))));
              });
  path_scheme("siblinghood", "parent/child == psib | self[<parent>] | fsib",
              0, 0, [](const Paths&, const Nodes&) {
                return std::pair(
                    MakeSeq(MakeAxis(Axis::kParent), MakeAxis(Axis::kChild)),
                    MakeUnion(
                        MakeAxis(Axis::kPrecedingSibling),
                        MakeUnion(MakeTest(MakeSome(MakeAxis(Axis::kParent))),
                                  MakeAxis(Axis::kFollowingSibling))));
              });

  // --- More star laws (Kleene algebra) -------------------------------------
  path_scheme("star-slide", "A*/A == A/A*", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSeq(MakeStar(p[0]), p[0]),
                                 MakeSeq(p[0], MakeStar(p[0])));
              });
  path_scheme("star-denest", "(A|B)* == (A*/B*)*", 2, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(
                    MakeStar(MakeUnion(p[0], p[1])),
                    MakeStar(MakeSeq(MakeStar(p[0]), MakeStar(p[1]))));
              });

  // --- Well-foundedness (Löb) in the other linear directions ---------------
  node_scheme("loeb-ancestor", "<anc[phi]> == <anc[phi and not <anc[phi]>]>",
              0, 1, [](const Paths&, const Nodes& n) {
                auto anc_phi = [&] {
                  return MakeSome(
                      MakeFilter(MakeAxis(Axis::kAncestor), n[0]));
                };
                return std::pair(
                    anc_phi(),
                    MakeSome(MakeFilter(MakeAxis(Axis::kAncestor),
                                        MakeAnd(n[0], MakeNot(anc_phi())))));
              });
  node_scheme("loeb-following-sibling",
              "<fsib[phi]> == <fsib[phi and not <fsib[phi]>]>", 0, 1,
              [](const Paths&, const Nodes& n) {
                auto fsib_phi = [&] {
                  return MakeSome(
                      MakeFilter(MakeAxis(Axis::kFollowingSibling), n[0]));
                };
                return std::pair(
                    fsib_phi(),
                    MakeSome(MakeFilter(MakeAxis(Axis::kFollowingSibling),
                                        MakeAnd(n[0], MakeNot(fsib_phi())))));
              });

  // --- Linearity of the ancestor chain --------------------------------------
  node_scheme("ancestor-linearity",
              "<anc[phi]> and <anc[psi]> == <anc[phi and psi]> or "
              "<anc[phi and <anc[psi]>]> or <anc[psi and <anc[phi]>]>",
              0, 2, [](const Paths&, const Nodes& n) {
                auto anc = [](NodePtr pred) {
                  return MakeSome(
                      MakeFilter(MakeAxis(Axis::kAncestor), std::move(pred)));
                };
                NodePtr lhs = MakeAnd(anc(n[0]), anc(n[1]));
                NodePtr rhs = MakeOr(
                    anc(MakeAnd(n[0], n[1])),
                    MakeOr(anc(MakeAnd(n[0], anc(n[1]))),
                           anc(MakeAnd(n[1], anc(n[0])))));
                return std::pair(std::move(lhs), std::move(rhs));
              });

  // --- Functionality as inconsistency ---------------------------------------
  node_scheme("parent-unique",
              "<parent[phi]> and <parent[not phi]> == false", 0, 1,
              [](const Paths&, const Nodes& n) {
                const PathPtr parent = MakeAxis(Axis::kParent);
                return std::pair(
                    MakeAnd(MakeSome(MakeFilter(parent, n[0])),
                            MakeSome(MakeFilter(parent, MakeNot(n[0])))),
                    MakeFalse());
              });

  // --- Root interaction ------------------------------------------------------
  node_scheme("aos-reaches-root", "<aos[root]> == true", 0, 0,
              [](const Paths&, const Nodes&) {
                return std::pair(
                    MakeSome(MakeFilter(MakeAxis(Axis::kAncestorOrSelf),
                                        MakeRootTest())),
                    MakeTrue());
              });
  node_scheme("no-root-below", "<desc[root]> == false", 0, 0,
              [](const Paths&, const Nodes&) {
                return std::pair(
                    MakeSome(MakeFilter(MakeAxis(Axis::kDescendant),
                                        MakeRootTest())),
                    MakeFalse());
              });

  // --- W distributes over the booleans --------------------------------------
  node_scheme("within-and", "W(phi and psi) == W(phi) and W(psi)", 0, 2,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeWithin(MakeAnd(n[0], n[1])),
                                 MakeAnd(MakeWithin(n[0]), MakeWithin(n[1])));
              });
  node_scheme("within-or", "W(phi or psi) == W(phi) or W(psi)", 0, 2,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeWithin(MakeOr(n[0], n[1])),
                                 MakeOr(MakeWithin(n[0]), MakeWithin(n[1])));
              });
  node_scheme("within-not", "W(not phi) == not W(phi)", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeWithin(MakeNot(n[0])),
                                 MakeNot(MakeWithin(n[0])));
              });

  // --- W laws ---------------------------------------------------------------
  {
    AxiomScheme scheme;
    scheme.name = "within-idem";
    scheme.statement = "W(W(phi)) == W(phi)";
    scheme.num_node_args = 1;
    scheme.build_nodes = [](const Paths&, const Nodes& n) {
      return std::pair(MakeWithin(MakeWithin(n[0])), MakeWithin(n[0]));
    };
    schemes.push_back(std::move(scheme));
  }
  {
    AxiomScheme scheme;
    scheme.name = "within-downward";
    scheme.statement = "W(phi) == phi   (phi downward)";
    scheme.num_node_args = 1;
    scheme.requires_downward_nodes = true;
    scheme.build_nodes = [](const Paths&, const Nodes& n) {
      return std::pair(MakeWithin(n[0]), n[0]);
    };
    schemes.push_back(std::move(scheme));
  }
  node_scheme("within-root", "W(root) == true", 0, 0,
              [](const Paths&, const Nodes&) {
                return std::pair(MakeWithin(MakeRootTest()), MakeTrue());
              });

  // --- The simplifier's rules (xpath/rewrite.cc names each scheme) ---------
  // A star of an axis whose reflexive-transitive closure is again an axis.
  for (const auto& [axis, star] :
       {std::pair{Axis::kChild, Axis::kDescendantOrSelf},
        std::pair{Axis::kDescendant, Axis::kDescendantOrSelf},
        std::pair{Axis::kDescendantOrSelf, Axis::kDescendantOrSelf},
        std::pair{Axis::kParent, Axis::kAncestorOrSelf},
        std::pair{Axis::kAncestor, Axis::kAncestorOrSelf},
        std::pair{Axis::kAncestorOrSelf, Axis::kAncestorOrSelf},
        std::pair{Axis::kSelf, Axis::kSelf}}) {
    const std::string name = AxisToString(axis);
    path_scheme("star-" + name, name + "* == " + AxisToString(star), 0, 0,
                [axis, star](const Paths&, const Nodes&) {
                  return std::pair(MakeStar(MakeAxis(axis)), MakeAxis(star));
                });
  }
  // Compositions of two axes that are again an axis (child/dos == desc is
  // `desc-decompose` above).
  for (const auto& [name, a, b, ab] :
       {std::tuple{"dos-child", Axis::kDescendantOrSelf, Axis::kChild,
                   Axis::kDescendant},
        std::tuple{"parent-aos", Axis::kParent, Axis::kAncestorOrSelf,
                   Axis::kAncestor},
        std::tuple{"aos-parent", Axis::kAncestorOrSelf, Axis::kParent,
                   Axis::kAncestor},
        std::tuple{"dos-dos", Axis::kDescendantOrSelf,
                   Axis::kDescendantOrSelf, Axis::kDescendantOrSelf},
        std::tuple{"aos-aos", Axis::kAncestorOrSelf, Axis::kAncestorOrSelf,
                   Axis::kAncestorOrSelf}}) {
    path_scheme(name,
                std::string(AxisToString(a)) + "/" + AxisToString(b) +
                    " == " + AxisToString(ab),
                0, 0, [a, b, ab](const Paths&, const Nodes&) {
                  return std::pair(MakeSeq(MakeAxis(a), MakeAxis(b)),
                                   MakeAxis(ab));
                });
  }
  // Reflexive relations have a total domain.
  for (const Axis axis :
       {Axis::kSelf, Axis::kDescendantOrSelf, Axis::kAncestorOrSelf}) {
    const std::string name = AxisToString(axis);
    node_scheme("some-" + name, "<" + name + "> == true", 0, 0,
                [axis](const Paths&, const Nodes&) {
                  return std::pair(MakeSome(MakeAxis(axis)), MakeTrue());
                });
  }
  node_scheme("some-star", "<A*> == true", 1, 0,
              [](const Paths& p, const Nodes&) {
                return std::pair(MakeSome(MakeStar(p[0])), MakeTrue());
              });
  // Boolean units, zeros, idempotence; commutativity covers the mirrored
  // forms the simplifier also folds.
  node_scheme("and-comm", "phi and psi == psi and phi", 0, 2,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeAnd(n[0], n[1]), MakeAnd(n[1], n[0]));
              });
  node_scheme("or-comm", "phi or psi == psi or phi", 0, 2,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeOr(n[0], n[1]), MakeOr(n[1], n[0]));
              });
  node_scheme("and-true-unit", "phi and true == phi", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeAnd(n[0], MakeTrue()), n[0]);
              });
  node_scheme("and-false-zero", "phi and false == false", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeAnd(n[0], MakeFalse()), MakeFalse());
              });
  node_scheme("or-true-zero", "phi or true == true", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeOr(n[0], MakeTrue()), MakeTrue());
              });
  node_scheme("or-false-unit", "phi or false == phi", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeOr(n[0], MakeFalse()), n[0]);
              });
  node_scheme("and-idem", "phi and phi == phi", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeAnd(n[0], n[0]), n[0]);
              });
  node_scheme("or-idem", "phi or phi == phi", 0, 1,
              [](const Paths&, const Nodes& n) {
                return std::pair(MakeOr(n[0], n[0]), n[0]);
              });

  return schemes;
}

}  // namespace

const std::vector<AxiomScheme>& CoreXPathAxiomSchemes() {
  static const std::vector<AxiomScheme>& schemes =
      *new std::vector<AxiomScheme>(BuildSchemes());
  return schemes;
}

}  // namespace xptc
