// Unit tests for the protocol data structures: guesses, commit guard sets
// (section 4.1.5 subsumption), commit histories with incarnation start
// tables (section 4.1.2 implicit aborts), the commit dependency graph
// (section 4.1.4 cycle detection), and the lazy scrubbing of CDGs and
// rollback maps through a ScrubLog.
#include <gtest/gtest.h>

#include "speculation/cdg.h"
#include "speculation/guard_set.h"
#include "speculation/history.h"
#include "speculation/messages.h"
#include "speculation/predictor.h"
#include "speculation/rollback_map.h"
#include "speculation/scrub_log.h"

namespace ocsp::spec {
namespace {

GuessId g(ProcessId owner, std::uint32_t inc, std::uint32_t index) {
  return GuessId{owner, inc, index};
}

// ---- GuessId / StateIndex ------------------------------------------------------------

TEST(GuessId, OrderingIsLexicographic) {
  EXPECT_LT(g(0, 0, 1), g(0, 0, 2));
  EXPECT_LT(g(0, 0, 9), g(0, 1, 1));
  EXPECT_LT(g(0, 1, 1), g(1, 0, 0));
  EXPECT_EQ(g(2, 1, 3), g(2, 1, 3));
}

TEST(GuessId, ValidityAndFormatting) {
  EXPECT_FALSE(GuessId{}.valid());
  EXPECT_TRUE(g(0, 0, 1).valid());
  EXPECT_EQ(g(3, 1, 4).to_string(), "g(P3.1.4)");
}

TEST(StateIndex, OrderingMatchesLogicalTime) {
  StateIndex a{0, 0, 0}, b{0, 0, 5}, c{0, 1, 0}, d{1, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
}

// ---- GuardSet ------------------------------------------------------------

TEST(GuardSet, AddAndContains) {
  GuardSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.add(g(1, 0, 3)));
  EXPECT_TRUE(s.contains(g(1, 0, 3)));
  EXPECT_FALSE(s.contains(g(1, 0, 2)));
  EXPECT_EQ(s.size(), 1u);
}

TEST(GuardSet, OnePerOwnerLatestWins) {
  // Section 4.1.5: a dependence on x5 subsumes a dependence on x3.
  GuardSet s;
  s.add(g(1, 0, 3));
  EXPECT_TRUE(s.add(g(1, 0, 5)));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(g(1, 0, 5)));
  EXPECT_FALSE(s.contains(g(1, 0, 3)));
  EXPECT_TRUE(s.covers(g(1, 0, 3)));
  // Adding an older guess is a no-op.
  EXPECT_FALSE(s.add(g(1, 0, 2)));
  EXPECT_TRUE(s.contains(g(1, 0, 5)));
}

TEST(GuardSet, HigherIncarnationSubsumes) {
  GuardSet s;
  s.add(g(1, 0, 9));
  EXPECT_TRUE(s.add(g(1, 1, 2)));
  EXPECT_TRUE(s.contains(g(1, 1, 2)));
  EXPECT_TRUE(s.covers(g(1, 0, 9)));
}

TEST(GuardSet, MergeIsPerOwnerUnion) {
  GuardSet a{g(1, 0, 2), g(2, 0, 1)};
  GuardSet b{g(1, 0, 4), g(3, 0, 7)};
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.contains(g(1, 0, 4)));
  EXPECT_TRUE(a.contains(g(2, 0, 1)));
  EXPECT_TRUE(a.contains(g(3, 0, 7)));
  EXPECT_FALSE(a.merge(b));  // idempotent
}

TEST(GuardSet, EraseExactOnly) {
  GuardSet s{g(1, 0, 5)};
  EXPECT_FALSE(s.erase(g(1, 0, 3)));  // not the stored member
  EXPECT_TRUE(s.erase(g(1, 0, 5)));
  EXPECT_TRUE(s.empty());
}

TEST(GuardSet, MinusComputesNewguards) {
  GuardSet tag{g(1, 0, 5), g(2, 0, 3)};
  GuardSet local{g(1, 0, 7)};  // subsumes the owner-1 entry
  auto fresh = tag.minus(local);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], g(2, 0, 3));
}

TEST(GuardSet, ForOwnerLookup) {
  GuardSet s{g(4, 1, 2)};
  EXPECT_EQ(s.for_owner(4), g(4, 1, 2));
  EXPECT_FALSE(s.for_owner(5).valid());
  EXPECT_TRUE(s.contains_owner(4));
  EXPECT_TRUE(s.erase_owner(4));
  EXPECT_TRUE(s.empty());
}

TEST(GuardSet, ToStringListsMembers) {
  GuardSet s{g(0, 0, 1), g(1, 0, 2)};
  const std::string out = s.to_string();
  EXPECT_NE(out.find("g(P0.0.1)"), std::string::npos);
  EXPECT_NE(out.find("g(P1.0.2)"), std::string::npos);
}

// ---- PeerHistory ------------------------------------------------------------

TEST(PeerHistory, ExplicitStatuses) {
  PeerHistory h;
  EXPECT_EQ(h.status(g(1, 0, 1)), GuessStatus::kUnknown);
  h.set_status(g(1, 0, 1), GuessStatus::kCommitted);
  EXPECT_EQ(h.status(g(1, 0, 1)), GuessStatus::kCommitted);
  h.set_status(g(1, 0, 2), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 0, 2)), GuessStatus::kAborted);
}

TEST(PeerHistory, UnknownNeverOverwritesFinal) {
  PeerHistory h;
  h.set_status(g(1, 0, 1), GuessStatus::kCommitted);
  h.set_status(g(1, 0, 1), GuessStatus::kUnknown);
  EXPECT_EQ(h.status(g(1, 0, 1)), GuessStatus::kCommitted);
}

TEST(PeerHistory, ImplicitAbortViaIncarnationStart) {
  // Section 4.1.2's worked example: incarnation 2 begins at index 3, so
  // x_{1,1} and x_{1,2} are unaffected but x_{1,3} is implicitly aborted.
  PeerHistory h;
  h.observe_incarnation(2, 3);
  EXPECT_EQ(h.status(g(1, 1, 1)), GuessStatus::kUnknown);
  EXPECT_EQ(h.status(g(1, 1, 2)), GuessStatus::kUnknown);
  EXPECT_EQ(h.status(g(1, 1, 3)), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 1, 9)), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 2, 3)), GuessStatus::kUnknown);
}

TEST(PeerHistory, SightingImpliesIncarnationStart) {
  // "Receipt of C2,3 can also be taken as an implicit abort of x1,3."
  PeerHistory h;
  h.set_status(g(1, 2, 3), GuessStatus::kCommitted);
  EXPECT_EQ(h.status(g(1, 1, 3)), GuessStatus::kAborted);
  EXPECT_EQ(h.status(g(1, 1, 2)), GuessStatus::kUnknown);
}

TEST(PeerHistory, StartIndexRefinesDownward) {
  PeerHistory h;
  h.observe_incarnation(1, 5);
  EXPECT_EQ(h.status(g(1, 0, 4)), GuessStatus::kUnknown);
  h.observe_incarnation(1, 2);
  EXPECT_EQ(h.status(g(1, 0, 4)), GuessStatus::kAborted);
  EXPECT_EQ(h.latest_incarnation(), 1u);
}

TEST(HistoryTable, AggregateQueries) {
  HistoryTable t;
  t.peer(1).set_status(g(1, 0, 1), GuessStatus::kAborted);
  t.peer(2).set_status(g(2, 0, 1), GuessStatus::kCommitted);
  GuardSet guard{g(1, 0, 1), g(2, 0, 1), g(3, 0, 1)};
  EXPECT_TRUE(t.any_aborted(guard));
  auto unresolved = t.unresolved_of(guard);
  ASSERT_EQ(unresolved.size(), 2u);  // aborted + unknown; committed dropped
  GuardSet clean{g(2, 0, 1)};
  EXPECT_FALSE(t.any_aborted(clean));
}

// ---- Cdg ------------------------------------------------------------

TEST(Cdg, AddNodesAndEdges) {
  Cdg cdg;
  EXPECT_FALSE(cdg.has_node(g(0, 0, 1)));
  cdg.add_node(g(0, 0, 1));
  EXPECT_TRUE(cdg.has_node(g(0, 0, 1)));
  auto cycle = cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  EXPECT_TRUE(cycle.empty());
  EXPECT_TRUE(cdg.has_edge(g(0, 0, 1), g(1, 0, 1)));
  EXPECT_EQ(cdg.node_count(), 2u);
  EXPECT_EQ(cdg.edge_count(), 1u);
}

TEST(Cdg, DetectsTwoCycle) {
  // Figure 7's cycle: x1 -> z1 -> x1.
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  auto cycle = cdg.add_edge(g(1, 0, 1), g(0, 0, 1));
  ASSERT_EQ(cycle.size(), 2u);
}

TEST(Cdg, DetectsSelfLoop) {
  Cdg cdg;
  auto cycle = cdg.add_edge(g(0, 0, 1), g(0, 0, 1));
  ASSERT_EQ(cycle.size(), 1u);
}

TEST(Cdg, DetectsLongCycle) {
  Cdg cdg;
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(cdg.add_edge(g(p, 0, 1), g(p + 1, 0, 1)).empty());
  }
  auto cycle = cdg.add_edge(g(4, 0, 1), g(0, 0, 1));
  EXPECT_EQ(cycle.size(), 5u);
}

TEST(Cdg, NoFalseCycleOnDag) {
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(0, 0, 1), g(2, 0, 1));
  EXPECT_TRUE(cdg.add_edge(g(1, 0, 1), g(2, 0, 1)).empty());
  EXPECT_TRUE(cdg.add_edge(g(2, 0, 1), g(3, 0, 1)).empty());
}

TEST(Cdg, RemoveNodeDropsEdges) {
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(1, 0, 1), g(2, 0, 1));
  cdg.remove_node(g(1, 0, 1));
  EXPECT_FALSE(cdg.has_node(g(1, 0, 1)));
  EXPECT_FALSE(cdg.has_edge(g(0, 0, 1), g(1, 0, 1)));
  EXPECT_EQ(cdg.edge_count(), 0u);
  // Removing the middle node breaks the potential cycle.
  EXPECT_TRUE(cdg.add_edge(g(2, 0, 1), g(0, 0, 1)).empty());
}

TEST(Cdg, PredecessorsAndClosure) {
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(2, 0, 1), g(1, 0, 1));
  cdg.add_edge(g(1, 0, 1), g(3, 0, 1));
  auto preds = cdg.predecessors(g(1, 0, 1));
  EXPECT_EQ(preds.size(), 2u);
  auto closure = cdg.closure_from(g(0, 0, 1));
  // 0 -> 1 -> 3: the closure contains all three.
  EXPECT_EQ(closure.size(), 3u);
}

TEST(Cdg, ClosureOfMissingNodeIsEmpty) {
  Cdg cdg;
  EXPECT_TRUE(cdg.closure_from(g(9, 0, 1)).empty());
}

// ---- Lazy scrubbing ------------------------------------------------------

TEST(LazyCdg, ScrubHidesTheGuessInEveryCopy) {
  ScrubLog log;
  Cdg parent;
  parent.add_edge(g(0, 0, 1), g(1, 0, 1), log);
  Cdg child = parent;  // a fork: shares the tables
  child.add_node(g(0, 0, 2), log);
  log.commit(g(0, 0, 1));
  for (const Cdg* c : {&parent, &child}) {
    EXPECT_FALSE(c->has_node(g(0, 0, 1), log));
    EXPECT_FALSE(c->has_edge(g(0, 0, 1), g(1, 0, 1), log));
    EXPECT_TRUE(c->predecessors(g(1, 0, 1), log).empty());
    EXPECT_TRUE(c->has_node(g(1, 0, 1), log));
  }
  EXPECT_TRUE(child.has_node(g(0, 0, 2), log));
  EXPECT_FALSE(parent.has_node(g(0, 0, 2), log));
  Cdg::Checked checked;
  for (const Cdg* c : {&parent, &child}) c->verify_lazy(log, checked);
}

TEST(LazyCdg, EdgeReAddingAScrubbedNodeIsVisibleAndClosesACycle) {
  // A PRECEDENCE edge may name a guess this graph already scrubbed: eager
  // removal re-creates the node, and so must the lazy view.
  ScrubLog log;
  Cdg cdg;
  cdg.add_edge(g(0, 0, 1), g(1, 0, 1), log);
  log.commit(g(0, 0, 1));
  EXPECT_FALSE(cdg.has_node(g(0, 0, 1), log));
  EXPECT_TRUE(cdg.add_edge(g(1, 0, 1), g(0, 0, 1), log).empty());
  EXPECT_TRUE(cdg.has_node(g(0, 0, 1), log));
  // The old edge 0 -> 1 stays scrubbed; a new one closes a cycle.
  EXPECT_FALSE(cdg.has_edge(g(0, 0, 1), g(1, 0, 1), log));
  const auto cycle = cdg.add_edge(g(0, 0, 1), g(1, 0, 1), log);
  EXPECT_EQ(cycle.size(), 2u);
  Cdg::Checked checked;
  cdg.verify_lazy(log, checked);
  // A second scrub removes the re-added node again.
  log.commit(g(0, 0, 1));
  EXPECT_FALSE(cdg.has_node(g(0, 0, 1), log));
  EXPECT_EQ(cdg.node_count(log), 1u);
  Cdg::Checked rechecked;
  cdg.verify_lazy(log, rechecked);
}

TEST(LazyCdg, ThawKeepsWhatTheCheckpointHeld) {
  ScrubLog log;
  Cdg live;
  live.add_edge(g(0, 0, 1), g(1, 0, 1), log);
  live.add_node(g(2, 0, 1), log);
  log.commit(g(2, 0, 1));  // before the checkpoint: gone from it too
  const Cdg checkpoint = live;
  const std::uint64_t at = log.now();
  log.commit(g(0, 0, 1));  // after: the checkpoint still holds it
  EXPECT_FALSE(live.has_node(g(0, 0, 1), log));
  const Cdg restored = checkpoint.thawed(log, at);
  EXPECT_TRUE(restored.has_node(g(0, 0, 1), log));
  EXPECT_TRUE(restored.has_edge(g(0, 0, 1), g(1, 0, 1), log));
  EXPECT_FALSE(restored.has_node(g(2, 0, 1), log));
  Cdg::Checked checked;
  restored.verify_lazy(log, checked);
  // The restored copy is live again: the next scrub applies to it.
  log.commit(g(0, 0, 1));
  EXPECT_FALSE(restored.has_node(g(0, 0, 1), log));
}

TEST(LazyCdg, AbortScrubHidesNodesNotRollbacks) {
  ScrubLog log;
  Cdg cdg;
  RollbackMap rb;
  cdg.add_node(g(0, 0, 1), log);
  rb.assign(g(0, 0, 1), StateIndex{0, 0, 3}, log);
  log.abort(g(0, 0, 1));
  EXPECT_FALSE(cdg.has_node(g(0, 0, 1), log));
  ASSERT_NE(rb.find(g(0, 0, 1), log), nullptr);
  EXPECT_EQ(*rb.find(g(0, 0, 1), log), (StateIndex{0, 0, 3}));
  log.commit(g(0, 0, 1));
  EXPECT_EQ(rb.find(g(0, 0, 1), log), nullptr);
  EXPECT_TRUE(rb.empty(log));
}

TEST(LazyRollbackMap, EmptyOnceEveryEntryIsScrubbed) {
  ScrubLog log;
  RollbackMap m;
  for (std::uint32_t i = 1; i <= 200; ++i) {
    m.assign(g(0, 0, i), StateIndex{0, i, 0}, log);
  }
  const RollbackMap copy = m;
  for (std::uint32_t i = 1; i <= 199; ++i) log.commit(g(0, 0, i));
  EXPECT_FALSE(m.empty(log));
  std::vector<GuessId> left;
  copy.for_each(log, [&](const GuessId& h, const StateIndex&) {
    left.push_back(h);
  });
  EXPECT_EQ(left, std::vector<GuessId>{g(0, 0, 200)});
  log.commit(g(0, 0, 200));
  EXPECT_TRUE(m.empty(log));
  EXPECT_TRUE(copy.empty(log));
  // Writes compact: the scrubbed entries go once the table has doubled.
  for (std::uint32_t i = 201; i <= 240; ++i) {
    m.assign(g(0, 0, i), StateIndex{0, i, 0}, log);
  }
  RollbackMap::Checked checked;
  m.verify_lazy(log, checked);
  std::size_t n = 0;
  m.for_each(log, [&](const GuessId&, const StateIndex&) { ++n; });
  EXPECT_EQ(n, 40u);
}

TEST(ScrubLogPrune, ForgetsOnlyWhatNoTableCanAskAbout) {
  ScrubLog log;
  Cdg live;
  live.add_edge(g(0, 0, 1), g(1, 0, 1), log);
  live.add_node(g(2, 0, 1), log);
  log.commit(g(0, 0, 1));  // before the checkpoint
  const Cdg checkpoint = live;
  const std::uint64_t at = log.now();
  log.commit(g(1, 0, 1));  // after: the checkpoint still holds it
  RollbackMap gone;
  gone.assign(g(3, 0, 1), StateIndex{0, 3, 0}, log);
  gone.clear();  // no table holds g(3, 0, 1) any more
  log.commit(g(3, 0, 1));
  const std::size_t before = log.size();

  std::unordered_set<const void*> seen;
  std::unordered_set<GuessId, GuessIdHash> held;
  for (const Cdg* c : {static_cast<const Cdg*>(&live), &checkpoint}) {
    c->for_each_stored_once(seen, [&](const GuessId& h) { held.insert(h); });
  }
  log.prune(held, at, seen.size());
  EXPECT_LT(log.size(), before);
  EXPECT_EQ(log.floor(), at);
  EXPECT_FALSE(log.tracks(g(3, 0, 1)));
  EXPECT_TRUE(log.tracks(g(0, 0, 1)));

  // Live and restored views answer as before the prune.
  EXPECT_FALSE(live.has_node(g(0, 0, 1), log));
  EXPECT_FALSE(live.has_node(g(1, 0, 1), log));
  EXPECT_TRUE(live.has_node(g(2, 0, 1), log));
  const Cdg restored = checkpoint.thawed(log, at);
  EXPECT_FALSE(restored.has_node(g(0, 0, 1), log));
  EXPECT_TRUE(restored.has_node(g(1, 0, 1), log));
  EXPECT_TRUE(restored.has_node(g(2, 0, 1), log));
  // A forgotten guess written again is tracked afresh.
  RollbackMap again;
  again.assign(g(3, 0, 1), StateIndex{0, 4, 0}, log);
  ASSERT_NE(again.find(g(3, 0, 1), log), nullptr);
  log.commit(g(3, 0, 1));
  EXPECT_EQ(again.find(g(3, 0, 1), log), nullptr);
}

// ---- Predictors ------------------------------------------------------------

TEST(Predictor, ConstantAlwaysGuessesSame) {
  PredictorState p;
  csp::Env env;
  auto spec = csp::PredictorSpec::always(csp::Value(true));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(true));
}

TEST(Predictor, ExprEvaluatesOverForkEnv) {
  PredictorState p;
  csp::Env env;
  env.set("i", csp::Value(6));
  auto spec = csp::PredictorSpec::from_expr(csp::var("i"));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(6));
}

TEST(Predictor, LastCommittedTracksObservations) {
  PredictorState p;
  csp::Env env;
  auto spec = csp::PredictorSpec::last_committed(csp::Value(0));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(0));
  p.observe("s", "v", csp::Value(42));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(42));
  // Different site/variable keys are independent.
  EXPECT_EQ(p.guess("other", "v", spec, env), csp::Value(0));
  EXPECT_EQ(p.guess("s", "w", spec, env), csp::Value(0));
}

TEST(Predictor, StrideExtrapolates) {
  PredictorState p;
  csp::Env env;
  auto spec = csp::PredictorSpec::strided(csp::Value(100), 10);
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(100));
  p.observe("s", "v", csp::Value(7));
  EXPECT_EQ(p.guess("s", "v", spec, env), csp::Value(17));
}

// ---- Messages ------------------------------------------------------------

TEST(Messages, DataMessageDescribe) {
  DataMessage m;
  m.data_kind = DataKind::kCall;
  m.op = "Update";
  m.args = {csp::Value(1)};
  m.reqid = 5;
  m.guard.add(g(0, 0, 1));
  EXPECT_EQ(m.kind(), "CALL");
  const std::string d = m.describe();
  EXPECT_NE(d.find("Update"), std::string::npos);
  EXPECT_NE(d.find("g(P0.0.1)"), std::string::npos);
  EXPECT_GT(m.wire_size(), 0u);
}

TEST(Messages, ControlMessageKinds) {
  ControlMessage c;
  c.control = ControlKind::kPrecedence;
  c.subject = g(1, 0, 2);
  c.guard.add(g(0, 0, 1));
  EXPECT_EQ(c.kind(), "PRECEDENCE");
  EXPECT_NE(c.describe().find("g(P1.0.2)"), std::string::npos);
  c.control = ControlKind::kCommit;
  EXPECT_EQ(c.kind(), "COMMIT");
  c.control = ControlKind::kAbort;
  EXPECT_EQ(c.kind(), "ABORT");
}

}  // namespace
}  // namespace ocsp::spec
