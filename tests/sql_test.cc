// Tests of the SQL front end (lexer -> parser -> analyzer -> plan builder):
// golden SQL -> MAL lowering shapes, structured ParseError diagnostics for
// parse and semantic failures in both front ends, language auto-detection
// and the dialect-keyed plan cache, and differential runs of SQL against
// hand-written MAL on a live ring at 1 and 8 plan workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "bat/operators.h"
#include "mal/program.h"
#include "opt/dc_optimizer.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "sql/compiler.h"
#include "sql/schema.h"
#include "workload/tpch_data.h"

namespace dcy::sql {
namespace {

/// t(a lng, b dbl, s str) and u(id lng, v lng) — the fixture schema the
/// golden and error tests resolve names against.
Schema TestSchema() {
  Schema schema;
  schema.AddColumn("t", "a", bat::ValType::kLng);
  schema.AddColumn("t", "b", bat::ValType::kDbl);
  schema.AddColumn("t", "s", bat::ValType::kStr);
  schema.AddColumn("u", "id", bat::ValType::kLng);
  schema.AddColumn("u", "v", bat::ValType::kLng);
  return schema;
}

std::vector<std::string> Ops(const mal::Program& p) {
  std::vector<std::string> ops;
  ops.reserve(p.instructions.size());
  for (const auto& ins : p.instructions) ops.push_back(ins.FullName());
  return ops;
}

/// True when `want` appears in `ops` in order (not necessarily adjacent).
bool InOrder(const std::vector<std::string>& ops, const std::vector<std::string>& want) {
  size_t at = 0;
  for (const auto& op : ops) {
    if (at < want.size() && op == want[at]) ++at;
  }
  return at == want.size();
}

std::vector<std::string> CompileOps(const std::string& sql) {
  auto program = Compile(sql, TestSchema());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  return Ops(program.value());
}

std::string Joined(const std::vector<std::string>& ops) {
  std::string s;
  for (const auto& op : ops) {
    s += op;
    s += ' ';
  }
  return s;
}

// ---------------------------------------------------------------------------
// Golden lowering shapes.
// ---------------------------------------------------------------------------

TEST(SqlGolden, ProjectionBindsAndExports) {
  const auto ops = CompileOps("select a from t");
  EXPECT_TRUE(InOrder(ops, {"sql.bind", "sql.resultSet", "sql.rsCol", "io.stdout",
                            "sql.exportResult"}))
      << Joined(ops);
}

TEST(SqlGolden, WhereLowersToSelectMirrorGather) {
  const auto ops = CompileOps("select a from t where a > 2");
  EXPECT_TRUE(InOrder(ops, {"sql.bind", "algebra.thetaselect", "bat.mirror",
                            "algebra.markT", "bat.reverse", "algebra.leftjoin",
                            "sql.resultSet"}))
      << Joined(ops);
}

TEST(SqlGolden, EqualityUsesPointSelect) {
  const auto ops = CompileOps("select a from t where s = 'x'");
  EXPECT_TRUE(InOrder(ops, {"sql.bind", "algebra.select", "bat.mirror"})) << Joined(ops);
}

TEST(SqlGolden, TopLevelAndAppliesConjunctsSequentially) {
  // Top-level conjuncts are split and each filter narrows the rowset before
  // the next runs (select -> gather -> select), with no semijoin.
  const auto ops = CompileOps("select a from t where a > 1 and b < 4.0");
  EXPECT_TRUE(InOrder(ops, {"algebra.thetaselect", "bat.mirror", "algebra.leftjoin",
                            "algebra.thetaselect", "bat.mirror"}))
      << Joined(ops);
}

TEST(SqlGolden, NestedAndIntersectsWithSemijoin) {
  // Under an OR the AND cannot be split: both sides evaluate to position
  // mirrors and intersect via semijoin.
  const auto ops = CompileOps("select a from t where (a > 1 and b < 4.0) or a = 6");
  EXPECT_TRUE(InOrder(ops, {"algebra.semijoin", "algebra.kunion", "algebra.sort"}))
      << Joined(ops);
}

TEST(SqlGolden, OrUnionsCandidates) {
  const auto ops = CompileOps("select a from t where a > 5 or b < 1.0");
  EXPECT_TRUE(InOrder(ops, {"algebra.kunion", "algebra.sort"})) << Joined(ops);
}

TEST(SqlGolden, InnerJoinReversesTheRightSide) {
  const auto ops = CompileOps("select u.v from t, u where t.a = u.id");
  EXPECT_TRUE(InOrder(ops, {"sql.bind", "bat.reverse", "algebra.join"})) << Joined(ops);
}

TEST(SqlGolden, GroupByEmitsGroupingAndPerGroupAggregates) {
  const auto ops = CompileOps("select s, sum(b), count(*) from t group by s");
  EXPECT_TRUE(InOrder(ops, {"group.id", "group.extents", "aggr.count",
                            "aggr.sumPerGroup", "aggr.countPerGroup"}))
      << Joined(ops);
}

TEST(SqlGolden, ScalarAggregateUsesSingleGroup) {
  const auto ops = CompileOps("select sum(b) from t");
  // No GROUP BY: every row is projected into group 0 and aggregated per-group.
  EXPECT_TRUE(InOrder(ops, {"algebra.project", "aggr.sumPerGroup"})) << Joined(ops);
}

TEST(SqlGolden, AvgIsSumOverCount) {
  const auto ops = CompileOps("select s, avg(b) from t group by s");
  EXPECT_TRUE(InOrder(ops, {"aggr.sumPerGroup", "aggr.countPerGroup", "batcalc.div"}))
      << Joined(ops);
}

TEST(SqlGolden, OrderByDescNegatesTheKey) {
  const auto ops = CompileOps("select a from t order by a desc");
  EXPECT_TRUE(InOrder(ops, {"batcalc.mul", "algebra.sort", "algebra.markT",
                            "bat.reverse", "algebra.leftjoin"}))
      << Joined(ops);
}

TEST(SqlGolden, LimitSlices) {
  const auto ops = CompileOps("select a from t order by a limit 2");
  EXPECT_TRUE(InOrder(ops, {"algebra.sort", "algebra.slice", "sql.resultSet"}))
      << Joined(ops);
}

TEST(SqlGolden, ArithmeticLowersToBatcalc) {
  const auto ops = CompileOps("select sum(b * (1.0 - b)) from t");
  EXPECT_TRUE(InOrder(ops, {"batcalc.sub", "batcalc.mul", "aggr.sumPerGroup"}))
      << Joined(ops);
}

// ---- writes (ISSUE-9): INSERT/DELETE lowering shapes ----------------------

TEST(SqlGolden, InsertLowersToPerColumnAppendsThenCommit) {
  const auto ops = CompileOps("insert into u values (4, 40)");
  // One wappend per column, then the commit that consumes their tokens; the
  // commit is the last assigned value (the rows-affected scalar).
  EXPECT_TRUE(InOrder(ops, {"sql.wappend", "sql.wappend", "sql.wcommit"}))
      << Joined(ops);
  EXPECT_EQ(std::count(ops.begin(), ops.end(), "sql.wappend"), 2);
}

TEST(SqlGolden, InsertAcceptsColumnListAndMultipleRows) {
  const auto ops = CompileOps("insert into u (v, id) values (40, 4), (50, 5)");
  EXPECT_TRUE(InOrder(ops, {"sql.wappend", "sql.wappend", "sql.wcommit"}))
      << Joined(ops);
}

TEST(SqlGolden, DeleteLowersPredicateToPositionsThenWdelete) {
  const auto ops = CompileOps("delete from u where id = 2");
  EXPECT_TRUE(InOrder(ops, {"sql.bind", "algebra.select", "bat.mirror",
                            "sql.wdelete"}))
      << Joined(ops);
}

TEST(SqlGolden, DeleteWithoutWhereMirrorsEveryPosition) {
  const auto ops = CompileOps("delete from u");
  EXPECT_TRUE(InOrder(ops, {"sql.bind", "bat.mirror", "sql.wdelete"})) << Joined(ops);
}

/// The emitted program must be valid MAL text: regenerating it and feeding
/// it back through the MAL parser yields a structurally identical plan.
TEST(SqlGolden, EmittedProgramRoundTripsThroughMalParser) {
  const auto program = Compile("select s, sum(b) from t where a > 1 group by s "
                               "order by s limit 3",
                               TestSchema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto reparsed = mal::ParseProgram(program->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  std::string why;
  EXPECT_TRUE(mal::AlphaEquivalent(*program, *reparsed, &why)) << why;
}

/// All five Table-4 TPC-H queries compile against the generated schema and
/// round-trip through the MAL parser.
TEST(SqlGolden, TpchQueriesCompile) {
  const workload::TpchData data = workload::GenerateTpchData(0.001);
  std::map<std::string, bat::ValType> columns;
  for (auto& [name, b] : workload::TpchBats(data)) {
    columns[name] = b->tail()->type();
  }
  const Schema schema = Schema::FromQualifiedColumns(columns);
  for (int q : workload::TpchSqlQueries()) {
    ParseError error;
    auto program = Compile(workload::TpchQuerySql(q), schema, &error);
    ASSERT_TRUE(program.ok()) << "Q" << q << ": " << program.status().ToString();
    auto reparsed = mal::ParseProgram(program->ToString());
    EXPECT_TRUE(reparsed.ok()) << "Q" << q << ": " << reparsed.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Language detection and dialect-keyed plan cache.
// ---------------------------------------------------------------------------

TEST(SqlDetect, LooksLikeSql) {
  EXPECT_TRUE(LooksLikeSql("select a from t"));
  EXPECT_TRUE(LooksLikeSql("  SELECT 1"));
  EXPECT_TRUE(LooksLikeSql("-- comment\nselect a from t"));
  EXPECT_FALSE(LooksLikeSql("function user.q():void;\nend q;"));
  EXPECT_FALSE(LooksLikeSql("X1 := sql.bind(\"sys\",\"t\",\"a\",0);"));
  EXPECT_FALSE(LooksLikeSql("selector := foo.bar();"));  // prefix, not the word
  EXPECT_TRUE(LooksLikeSql("insert into u values (1, 2)"));
  EXPECT_TRUE(LooksLikeSql("  DELETE from u where id = 1"));
  EXPECT_FALSE(LooksLikeSql("insertion := foo.bar();"));
}

TEST(SqlDetect, PlanCacheKeySeparatesDialects) {
  const std::string text = "select a from t";
  EXPECT_NE(opt::PlanCacheKey(text, "sql"), opt::PlanCacheKey(text, "mal"));
  EXPECT_EQ(opt::PlanCacheKey(text, "sql"), opt::PlanCacheKey(text, "sql"));
  EXPECT_EQ(opt::PlanCacheKey(text).rfind("mal-", 0), 0u);  // default dialect
}

// ---------------------------------------------------------------------------
// Structured diagnostics.
// ---------------------------------------------------------------------------

void ExpectCompileError(const std::string& sql, const std::string& message_substr) {
  ParseError error;
  auto program = Compile(sql, TestSchema(), &error);
  ASSERT_FALSE(program.ok()) << sql;
  EXPECT_TRUE(error.set()) << sql;
  EXPECT_GE(error.line, 1) << sql;
  EXPECT_GE(error.column, 1) << sql;
  EXPECT_NE(error.snippet.find('^'), std::string::npos) << sql;
  EXPECT_NE(error.message.find(message_substr), std::string::npos)
      << sql << " -> " << error.message;
  // The Status carries the same rendered diagnostic.
  EXPECT_NE(program.status().message().find(message_substr), std::string::npos);
}

TEST(SqlErrors, ParseErrors) {
  ExpectCompileError("select from t", "expected");
  ExpectCompileError("select a t", "expected");
  ExpectCompileError("select a from t where s = 'oops", "string");
}

TEST(SqlErrors, SemanticErrors) {
  ExpectCompileError("select a from nosuch", "unknown table");
  ExpectCompileError("select nosuch from t", "unknown column");
  ExpectCompileError("select u.v from t, u where t.nosuch = u.id", "unknown column");
  ExpectCompileError("select a from t where s > 3", "type mismatch in comparison");
  ExpectCompileError("select a, sum(b) from t group by s",
                     "must appear in GROUP BY or an aggregate");
  ExpectCompileError("select a from t where sum(a) > 3", "aggregate not allowed here");
  ExpectCompileError("select sum(s) from t", "non-numeric");
}

TEST(SqlErrors, WriteStatementErrors) {
  ExpectCompileError("insert into nosuch values (1)", "unknown table");
  ExpectCompileError("insert into u (id) values (1)", "must cover every column");
  ExpectCompileError("insert into u (id, id) values (1, 2)", "duplicate column");
  ExpectCompileError("insert into u values (1)", "VALUES row has");
  ExpectCompileError("insert into u values", "expected '('");
  ExpectCompileError("delete from nosuch", "unknown table");
  ExpectCompileError("delete from u where nosuch = 1", "unknown column");
}

TEST(SqlErrors, PositionsPointAtTheOffendingToken) {
  ParseError error;
  auto program = Compile("select nosuch from t", TestSchema(), &error);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(error.line, 1);
  EXPECT_EQ(error.column, 8);
  EXPECT_EQ(error.token, "nosuch");
}

TEST(SqlErrors, SecondLineErrorsCarryTheRightLine) {
  ParseError error;
  auto program = Compile("select a\nfrom t where nosuch = 1", TestSchema(), &error);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(error.line, 2);
  EXPECT_EQ(error.token, "nosuch");
}

TEST(MalErrors, ParserFillsStructuredError) {
  ParseError error;
  auto program = mal::ParseProgram("X1 := sql.bind(\"sys\",\"t\"\n", &error);
  ASSERT_FALSE(program.ok());
  EXPECT_TRUE(error.set());
  EXPECT_GE(error.line, 1);
  EXPECT_GE(error.column, 1);
  EXPECT_NE(error.snippet.find('^'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Differential: SQL vs hand-written MAL on a live ring whose plans run 1 and
// 8 instructions wide (RingCluster::Options::plan_workers).
// ---------------------------------------------------------------------------

constexpr size_t kPlanWidths[] = {1, 8};

class SqlDifferential : public ::testing::Test {
 protected:
  // Every test starts on a ring of the default plan width; the differential
  // tests rebuild it at each of kPlanWidths.
  void SetUp() override { StartRing(runtime::RingCluster::Options{}.plan_workers); }

  void StartRing(size_t plan_workers) {
    cluster.reset();
    runtime::RingCluster::Options opts;
    opts.num_nodes = 3;
    opts.plan_workers = plan_workers;
    opts.node.min_resend_timeout = FromMillis(20);
    cluster = std::make_unique<runtime::RingCluster>(opts);
    Load(0, "sys.t.a", bat::MakeLngColumn({1, 2, 3, 4, 5, 6}));
    Load(1, "sys.t.b", bat::MakeDblColumn({0.5, 1.5, 2.5, 3.5, 4.5, 5.5}));
    Load(2, "sys.t.s", bat::MakeStrColumn({"x", "y", "x", "y", "x", "y"}));
    Load(0, "sys.u.id", bat::MakeLngColumn({1, 2, 3}));
    Load(1, "sys.u.v", bat::MakeLngColumn({10, 20, 30}));
    cluster->Start();
  }

  void Load(core::NodeId node, const std::string& name, bat::ColumnPtr tail) {
    ASSERT_TRUE(
        cluster->LoadBat(node, name, bat::Bat::MakeColumn(std::move(tail))).ok());
  }

  Result<runtime::QueryResult> Run(const std::string& text) {
    auto session = cluster->OpenSession(0);
    if (!session.ok()) return session.status();
    return session->Execute(text);
  }

  static std::vector<std::vector<std::string>> Rows(const runtime::ResultSet& rs) {
    std::vector<std::vector<std::string>> rows;
    for (size_t r = 0; r < rs.num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < rs.num_columns(); ++c) {
        row.push_back(rs.ValueAt(r, c).ToString());
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  /// Runs the SQL text and the hand-written MAL plan and compares the
  /// exported tables (`ordered` = false compares as multisets, for plans
  /// whose row order is not pinned by an ORDER BY).
  void ExpectSameTable(const std::string& sql, const std::string& mal,
                       bool ordered = true) {
    auto sql_result = Run(sql);
    ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();
    auto mal_result = Run(mal);
    ASSERT_TRUE(mal_result.ok()) << mal_result.status().ToString();
    auto got = Rows(sql_result->result);
    auto want = Rows(mal_result->result);
    if (!ordered) {
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
    }
    EXPECT_EQ(got, want) << "plan_workers=" << cluster->options().plan_workers;
  }

  std::unique_ptr<runtime::RingCluster> cluster;
};

constexpr const char* kFilterMal = R"(
function user.d1():void;
    X1 := sql.bind("sys","t","a",0);
    X2 := algebra.thetaselect(X1, 2, ">");
    X3 := bat.mirror(X2);
    X4 := algebra.markT(X3, 0@0);
    X5 := bat.reverse(X4);
    X6 := algebra.leftjoin(X5, X1);
    X7 := sql.resultSet(1, 1, X6);
    sql.rsCol(X7, "sys.t", "a", "lng", 64, 0, X6);
    X8 := io.stdout();
    sql.exportResult(X8, X7);
end d1;
)";

constexpr const char* kJoinMal = R"(
function user.d2():void;
    X1 := sql.bind("sys","t","a",0);
    X2 := sql.bind("sys","u","id",0);
    X3 := sql.bind("sys","u","v",0);
    X4 := bat.reverse(X2);
    X5 := algebra.join(X1, X4);
    X6 := algebra.leftjoin(X5, X3);
    X7 := sql.resultSet(1, 1, X6);
    sql.rsCol(X7, "sys.u", "v", "lng", 64, 0, X6);
    X8 := io.stdout();
    sql.exportResult(X8, X7);
end d2;
)";

TEST_F(SqlDifferential, FilterMatchesHandWrittenMal) {
  for (size_t width : kPlanWidths) {
    StartRing(width);
    ExpectSameTable("select a from t where a > 2", kFilterMal);
  }
}

TEST_F(SqlDifferential, JoinMatchesHandWrittenMal) {
  for (size_t width : kPlanWidths) {
    StartRing(width);
    ExpectSameTable("select u.v from t, u where t.a = u.id", kJoinMal,
                    /*ordered=*/false);
  }
}

TEST_F(SqlDifferential, ScalarSumMatchesMalAggregate) {
  for (size_t width : kPlanWidths) {
    StartRing(width);
    auto sql_result = Run("select sum(a) from t");
    ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();
    const runtime::ResultSet& rs = sql_result->result;
    ASSERT_TRUE(rs.has_table());
    ASSERT_EQ(rs.num_rows(), 1u);

    auto mal_result =
        Run("X1 := sql.bind(\"sys\",\"t\",\"a\",0);\nX2 := aggr.sum(X1);\n");
    ASSERT_TRUE(mal_result.ok()) << mal_result.status().ToString();
    const mal::Datum& scalar = mal_result->result.scalar();
    ASSERT_TRUE(std::holds_alternative<int64_t>(scalar));
    EXPECT_DOUBLE_EQ(rs.DoubleAt(0, 0), static_cast<double>(std::get<int64_t>(scalar)));
  }
}

TEST_F(SqlDifferential, GroupByOrderByMatchesExpectedTable) {
  for (size_t width : kPlanWidths) {
    StartRing(width);
    auto result = Run("select s, count(*), sum(a) from t group by s order by s");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const runtime::ResultSet& rs = result->result;
    // a = 1..6, s alternates x,y,x,y,x,y: x -> {1,3,5}, y -> {2,4,6}.
    ASSERT_EQ(rs.num_rows(), 2u) << "plan_workers=" << width;
    ASSERT_EQ(rs.num_columns(), 3u);
    EXPECT_EQ(rs.StringAt(0, 0), "x");
    EXPECT_EQ(rs.Int64At(0, 1), 3);
    EXPECT_DOUBLE_EQ(rs.DoubleAt(0, 2), 9.0);
    EXPECT_EQ(rs.StringAt(1, 0), "y");
    EXPECT_EQ(rs.Int64At(1, 1), 3);
    EXPECT_DOUBLE_EQ(rs.DoubleAt(1, 2), 12.0);
  }
}

TEST_F(SqlDifferential, AutoDetectionRoutesBothLanguages) {
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  auto sql_prepared = session->Prepare("select a from t where a > 2");
  ASSERT_TRUE(sql_prepared.ok()) << sql_prepared.status().ToString();
  EXPECT_EQ((*sql_prepared)->cache_key().rfind("sql-", 0), 0u);

  auto mal_prepared = session->Prepare(kFilterMal);
  ASSERT_TRUE(mal_prepared.ok()) << mal_prepared.status().ToString();
  EXPECT_EQ((*mal_prepared)->cache_key().rfind("mal-", 0), 0u);

  // Same text again: shared-plan-cache hit returns the same object.
  auto again = session->Prepare("select a from t where a > 2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), sql_prepared.value());
}

TEST_F(SqlDifferential, PrepareSurfacesSqlDiagnostics) {
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  ParseError error;
  runtime::PrepareOptions options;
  options.parse_error = &error;
  auto prepared = session->Prepare("select nosuch from t", options);
  ASSERT_FALSE(prepared.ok());
  EXPECT_TRUE(error.set());
  EXPECT_EQ(error.token, "nosuch");
  EXPECT_NE(error.message.find("unknown column"), std::string::npos);
}

TEST_F(SqlDifferential, ExplicitLanguageOverridesDetection) {
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  runtime::PrepareOptions options;
  options.language = runtime::Language::kMAL;
  // SQL text forced through the MAL parser must fail, not silently reroute.
  EXPECT_FALSE(session->Prepare("select a from t", options).ok());
}

}  // namespace
}  // namespace dcy::sql
