// Tests for the MAL layer: parser, dataflow dependency builder, interpreter
// (sequential + parallel), and the builtin operators over an in-memory
// fragment source.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "bat/operators.h"
#include "mal/interpreter.h"
#include "mal/program.h"

namespace dcy::mal {
namespace {

// The literal plan from the paper's Table 1.
constexpr const char* kTable1Plan = R"(
function user.s1_2():void;
    X1 := sql.bind("sys","t","id",0);
    X6 := sql.bind("sys","c","t_id",0);
    X9 := bat.reverse(X6);
    X10 := algebra.join(X1, X9);
    X13 := algebra.markT(X10,0@0);
    X14 := bat.reverse(X13);
    X15 := algebra.join(X14, X1);
    X16 := sql.resultSet(1,1,X15);
    sql.rsCol(X16,"sys.c","t_id","int",32,0,X15);
    X22 := io.stdout();
    sql.exportResult(X22,X16);
end s1_2;
)";

TEST(ParserTest, ParsesTable1Plan) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->name, "user.s1_2");
  ASSERT_EQ(prog->instructions.size(), 11u);
  EXPECT_EQ(prog->instructions[0].ret, "X1");
  EXPECT_EQ(prog->instructions[0].FullName(), "sql.bind");
  ASSERT_EQ(prog->instructions[0].args.size(), 4u);
  EXPECT_EQ(std::get<std::string>(prog->instructions[0].args[0].literal), "sys");
  EXPECT_EQ(std::get<int64_t>(prog->instructions[0].args[3].literal), 0);

  const auto& markt = prog->instructions[4];
  EXPECT_EQ(markt.FullName(), "algebra.markT");
  EXPECT_TRUE(markt.args[0].is_var());
  EXPECT_EQ(std::get<OidLit>(markt.args[1].literal).value, 0u);

  const auto& rscol = prog->instructions[8];
  EXPECT_TRUE(rscol.ret.empty());
  EXPECT_EQ(rscol.args.size(), 7u);
}

TEST(ParserTest, MaxVarNumber) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->MaxVarNumber(), 22);
}

TEST(ParserTest, RoundTripThroughToString) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  auto again = ParseProgram(prog->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(AlphaEquivalent(*prog, *again));
}

TEST(ParserTest, CommentsAndNegativeNumbers) {
  auto prog = ParseProgram(R"(
# leading comment
X1 := algebra.select(X0, -5, 3.5);  # trailing is not supported mid-line but
X2 := aggr.count(X1);
)");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->instructions.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(prog->instructions[0].args[1].literal), -5);
  EXPECT_DOUBLE_EQ(std::get<double>(prog->instructions[0].args[2].literal), 3.5);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("X1 := nodot(1);").ok());
  EXPECT_FALSE(ParseProgram("X1 := a.b(1").ok());
  EXPECT_FALSE(ParseProgram("X1 := a.b(\"unterminated);").ok());
}

TEST(AlphaEquivalenceTest, DetectsRenamingsAndDifferences) {
  auto a = *ParseProgram("X1 := a.f(1); X2 := a.g(X1);");
  auto b = *ParseProgram("Y9 := a.f(1); Y7 := a.g(Y9);");
  EXPECT_TRUE(AlphaEquivalent(a, b));

  auto c = *ParseProgram("X1 := a.f(1); X2 := a.g(X2);");  // uses wrong var
  std::string why;
  EXPECT_FALSE(AlphaEquivalent(a, c, &why));
  EXPECT_FALSE(why.empty());

  auto d = *ParseProgram("X1 := a.f(2); X2 := a.g(X1);");  // literal differs
  EXPECT_FALSE(AlphaEquivalent(a, d));
}

TEST(DependencyTest, ProducerAndVoidOrdering) {
  auto prog = *ParseProgram(R"(
X1 := a.f(1);
X2 := a.g(X1);
a.touch(X2);
X3 := a.h(X2);
)");
  auto deps = BuildDependencies(prog);
  ASSERT_EQ(deps.size(), 4u);
  EXPECT_TRUE(deps[0].empty());
  EXPECT_EQ(deps[1], (std::vector<size_t>{0}));
  EXPECT_EQ(deps[2], (std::vector<size_t>{1}));
  // The void a.touch(X2) became X2's latest writer: a.h must follow it.
  EXPECT_EQ(deps[3], (std::vector<size_t>{2}));
}

/// The fragments sql.bind reads, addressed by qualified name.
class InMemorySource : public bat::FragmentSource {
 public:
  std::map<std::string, bat::BatPtr> bats;

  Result<bat::BatPtr> GetByName(const std::string& name) override {
    auto it = bats.find(name);
    if (it == bats.end()) return Status::NotFound("BAT " + name);
    return it->second;
  }
  Result<bat::BatPtr> GetById(core::BatId id) override {
    return Status::NotFound("BAT id " + std::to_string(id));
  }
};

struct EngineFixture : public ::testing::Test {
  EngineFixture() {
    // sys.t(id int): ids 1..4 ; sys.c(t_id int): references 2,3,3,5.
    source.bats["sys.t.id"] = bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4}));
    source.bats["sys.c.t_id"] = bat::Bat::MakeColumn(bat::MakeIntColumn({2, 3, 3, 5}));
    ctx.catalog = &source;
    ctx.out = &out;
  }

  InMemorySource source;
  std::ostringstream out;
  Context ctx;
};

TEST_F(EngineFixture, ExecutesTable1PlanSequentially) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  Interpreter interp(&Registry::Global(), ctx);
  auto result = interp.Run(*prog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // select c.t_id from t, c where c.t_id = t.id -> {2, 3, 3} (5 has no match).
  const auto& x15 = interp.variables().at("X15");
  const auto& b = std::get<bat::BatPtr>(x15);
  ASSERT_EQ(b->size(), 3u);
  std::multiset<int64_t> got;
  for (size_t i = 0; i < b->size(); ++i) got.insert(b->tail()->GetInt64(i));
  EXPECT_EQ(got, (std::multiset<int64_t>{2, 3, 3}));

  // The exported result was printed.
  EXPECT_NE(out.str().find("sys.c.t_id"), std::string::npos);
}

TEST_F(EngineFixture, DataflowExecutionMatchesSequential) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  Interpreter seq(&Registry::Global(), ctx);
  ASSERT_TRUE(seq.Run(*prog).ok());

  std::ostringstream out2;
  Context ctx2 = ctx;
  ctx2.out = &out2;
  Interpreter par(&Registry::Global(), ctx2);
  auto result = par.RunDataflow(*prog, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(out.str(), out2.str());
}

TEST_F(EngineFixture, UnknownCallReportsInstruction) {
  auto prog = *ParseProgram("X1 := no.such(1);");
  Interpreter interp(&Registry::Global(), ctx);
  auto result = interp.Run(prog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(EngineFixture, UndefinedVariableFails) {
  auto prog = *ParseProgram("X1 := bat.reverse(X99);");
  Interpreter interp(&Registry::Global(), ctx);
  EXPECT_EQ(interp.Run(prog).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, BindUnknownColumnFails) {
  auto prog = *ParseProgram(R"(X1 := sql.bind("sys","nope","c",0);)");
  Interpreter interp(&Registry::Global(), ctx);
  EXPECT_TRUE(interp.Run(prog).status().IsNotFound());
}

TEST_F(EngineFixture, AggregationPipeline) {
  auto prog = ParseProgram(R"(
X1 := sql.bind("sys","c","t_id",0);
X2 := group.id(X1);
X3 := group.values(X1);
X4 := aggr.countPerGroup(X2, 3);
X5 := aggr.sum(X1);
X6 := aggr.count(X1);
)");
  Interpreter interp(&Registry::Global(), ctx);
  ASSERT_TRUE(interp.Run(*prog).ok());
  EXPECT_EQ(std::get<int64_t>(interp.variables().at("X5")), 13);  // 2+3+3+5
  EXPECT_EQ(std::get<int64_t>(interp.variables().at("X6")), 4);
  const auto& counts = std::get<bat::BatPtr>(interp.variables().at("X4"));
  EXPECT_EQ(counts->tail()->GetInt64(0), 1);  // value 2
  EXPECT_EQ(counts->tail()->GetInt64(1), 2);  // value 3
}

TEST_F(EngineFixture, TopNBuiltinTakesOptionalDescendingFlag) {
  auto prog = ParseProgram(R"(
X1 := sql.bind("sys","c","t_id",0);
X2 := algebra.topn(X1, 2);
X3 := algebra.topn(X1, 2, 0);
X4 := algebra.topn(X1, 2, 1);
)");
  ASSERT_TRUE(prog.ok());
  Interpreter interp(&Registry::Global(), ctx);
  ASSERT_TRUE(interp.Run(*prog).ok());
  // Two-arg form keeps the historical default: largest first.
  const auto& legacy = std::get<bat::BatPtr>(interp.variables().at("X2"));
  ASSERT_EQ(legacy->size(), 2u);
  EXPECT_GE(legacy->tail()->GetInt64(0), legacy->tail()->GetInt64(1));
  const auto& asc = std::get<bat::BatPtr>(interp.variables().at("X3"));
  ASSERT_EQ(asc->size(), 2u);
  EXPECT_LE(asc->tail()->GetInt64(0), asc->tail()->GetInt64(1));
  const auto& desc = std::get<bat::BatPtr>(interp.variables().at("X4"));
  ASSERT_EQ(desc->size(), 2u);
  EXPECT_GE(desc->tail()->GetInt64(0), desc->tail()->GetInt64(1));
}

TEST_F(EngineFixture, SelectAndArithPipeline) {
  auto prog = ParseProgram(R"(
X1 := sql.bind("sys","c","t_id",0);
X2 := algebra.select(X1, 2, 3);
X3 := batcalc.mul(X2, 10);
X4 := aggr.sum(X3);
)");
  Interpreter interp(&Registry::Global(), ctx);
  ASSERT_TRUE(interp.Run(*prog).ok());
  EXPECT_DOUBLE_EQ(std::get<double>(interp.variables().at("X4")), 80.0);  // (2+3+3)*10
}

TEST_F(EngineFixture, ExportSinkCapturesTypedResult) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  ExportSink sink;
  Context ctx2 = ctx;
  ctx2.exported = &sink;
  Interpreter interp(&Registry::Global(), ctx2);
  ASSERT_TRUE(interp.Run(*prog).ok());
  ASSERT_NE(sink.result, nullptr);
  ASSERT_EQ(sink.result->columns.size(), 1u);
  EXPECT_EQ(sink.result->columns[0].table, "sys.c");
  EXPECT_EQ(sink.result->columns[0].name, "t_id");
  EXPECT_EQ(sink.result->columns[0].values->size(), 3u);
}

TEST_F(EngineFixture, CancelledTokenStopsSequentialExecution) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  CancelToken cancel;
  cancel.Cancel();
  ExecOptions opts;
  opts.cancel = &cancel;
  Interpreter interp(&Registry::Global(), ctx);
  auto result = interp.Execute(*prog, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

TEST_F(EngineFixture, ExpiredDeadlineStopsDataflowExecution) {
  auto prog = ParseProgram(kTable1Plan);
  ASSERT_TRUE(prog.ok());
  CancelToken cancel;
  cancel.set_deadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  ExecOptions opts;
  opts.workers = 4;
  opts.cancel = &cancel;
  Interpreter interp(&Registry::Global(), ctx);
  auto result = interp.Execute(*prog, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimedOut());
}

TEST_F(EngineFixture, ParameterBindingSeedsFreeVariables) {
  // LO/HI are parameters: read by the plan, assigned by nobody.
  auto prog = ParseProgram(R"(
X1 := sql.bind("sys","c","t_id",0);
X2 := algebra.select(X1, LO, HI);
X3 := aggr.count(X2);
)");
  ASSERT_TRUE(prog.ok());
  std::unordered_map<std::string, Datum> params;
  params["LO"] = Datum(int64_t{2});
  params["HI"] = Datum(int64_t{3});
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExecOptions opts;
    opts.workers = workers;
    opts.params = &params;
    Interpreter interp(&Registry::Global(), ctx);
    auto result = interp.Execute(*prog, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(std::get<int64_t>(*result), 3);  // rows 2,3,3
  }
  // Without the bindings the plan has an undefined variable.
  Interpreter interp(&Registry::Global(), ctx);
  EXPECT_EQ(interp.Execute(*prog, ExecOptions{}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, DcCallsWithoutRingFail) {
  auto prog = ParseProgram(R"(X1 := datacyclotron.request("sys","t","id",0);)");
  Interpreter interp(&Registry::Global(), ctx);  // ctx.dc == nullptr
  EXPECT_EQ(interp.Run(*prog).status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dcy::mal
