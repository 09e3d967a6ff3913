#include "cli/args.hpp"
#include "cli/commands.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "golden_digest.hpp"
#include "stats/json.hpp"

namespace dlb::cli {
namespace {

// ---- Args parser ----

TEST(Args, ParsesPositionalsAndOptions) {
  const Args args = Args::parse({"pos1", "--key", "value", "pos2", "--flag"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"pos1", "pos2"}));
  EXPECT_EQ(args.get("key", ""), "value");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, TypedGettersAndDefaults) {
  const Args args = Args::parse({"--n", "42", "--x", "2.5", "--s", "7"});
  EXPECT_EQ(args.get_count("n", 0), 42u);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_EQ(args.get_count("s", 0), 7u);
  EXPECT_EQ(args.get_count("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
}

TEST(Args, RejectsMalformedNumbers) {
  const Args args = Args::parse({"--n", "4x", "--neg", "-3", "--plus", "+5",
                                 "--big", "18446744073709551616", "--y",
                                 "2.5z"});
  EXPECT_THROW((void)args.get_count("n", 0), std::invalid_argument);
  try {
    (void)args.get_count("neg", 0);
    ADD_FAILURE() << "a negative count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "option --neg must be >= 0");
  }
  EXPECT_THROW((void)args.get_count("plus", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_count("big", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("y", 0.0), std::invalid_argument);
}

TEST(Args, NumberGrammarAndListSplit) {
  EXPECT_EQ(to_count("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(to_count(""), std::nullopt);
  EXPECT_EQ(to_count(" 5"), std::nullopt);
  EXPECT_EQ(to_count("-1"), std::nullopt);
  EXPECT_EQ(to_number("1e3"), 1000.0);
  EXPECT_EQ(to_number("-0.25"), -0.25);
  EXPECT_EQ(to_number("2,5"), std::nullopt);

  EXPECT_EQ(split_list("a,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_list("a,,b,"),
            (std::vector<std::string>{"a", "", "b", ""}));
  EXPECT_EQ(split_list(""), (std::vector<std::string>{""}));
  EXPECT_EQ(split_list("1@2", '@'), (std::vector<std::string>{"1", "2"}));
}

TEST(Args, RequireThrowsWhenMissing) {
  const Args args = Args::parse({"--present", "x"});
  EXPECT_EQ(args.require("present"), "x");
  EXPECT_THROW((void)args.require("absent"), std::invalid_argument);
}

TEST(Args, TracksUnusedOptions) {
  const Args args = Args::parse({"--used", "1", "--typo", "2"});
  (void)args.get_count("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused.front(), "typo");
}

// ---- command round trips ----

struct CommandResult {
  int code;
  std::string out;
  std::string err;
};

CommandResult run(const std::vector<std::string>& argv) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_command(argv, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Commands, HelpSucceeds) {
  const auto result = run({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
}

TEST(Commands, UnknownCommandIsUsageError) {
  const auto result = run({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Commands, UnknownOptionIsRejected) {
  const auto result = run({"markov", "--m", "4", "--oops", "1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--oops"), std::string::npos);
}

TEST(Commands, GenInfoSolveBalancePipeline) {
  const std::string path = temp_path("cli_pipeline.inst");
  const auto gen = run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2",
                        "2", "--jobs", "48", "--hi", "100", "--out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("6 machines"), std::string::npos);

  const auto info = run({"info", "--in", path});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("jobs          : 48"), std::string::npos);
  EXPECT_NE(info.out.find("LB fractional"), std::string::npos);

  const auto solve = run({"solve", "--in", path, "--alg", "clb2c"});
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("makespan"), std::string::npos);

  const std::string trace = temp_path("cli_trace.csv");
  const auto balance = run({"balance", "--in", path, "--alg", "dlb2c",
                            "--exchanges-per-machine", "5", "--trace", trace});
  ASSERT_EQ(balance.code, 0) << balance.err;
  EXPECT_NE(balance.out.find("final factor"), std::string::npos);
  EXPECT_NE(balance.out.find("trace written"), std::string::npos);

  std::ifstream trace_file(trace);
  std::string header;
  std::getline(trace_file, header);
  // Old 2-column format first, new columns appended (script compatibility).
  EXPECT_EQ(header, "exchange,makespan,changed,migrations");
  std::string first_row;
  std::getline(trace_file, first_row);
  EXPECT_EQ(first_row.rfind("1,", 0), 0u);
  EXPECT_EQ(std::count(first_row.begin(), first_row.end(), ','), 3);
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(Commands, BalanceWritesStructurallyValidObsJson) {
  const std::string path = temp_path("cli_obs.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "100", "--out", path})
                .code,
            0);
  const std::string trace_json = temp_path("cli_obs_trace.json");
  const std::string metrics_json = temp_path("cli_obs_metrics.json");
  const auto balance =
      run({"balance", "--in", path, "--exchanges-per-machine", "4",
           "--trace-json", trace_json, "--metrics-json", metrics_json});
  ASSERT_EQ(balance.code, 0) << balance.err;
  EXPECT_NE(balance.out.find("trace-json"), std::string::npos);
  EXPECT_NE(balance.out.find("metrics-json"), std::string::npos);

  // The Chrome trace must parse, carry the expected top-level shape, and
  // every exchange span must contribute a begin and an end event.
  const stats::Json trace_doc = stats::Json::parse(slurp(trace_json));
  ASSERT_TRUE(trace_doc.is_object());
  EXPECT_EQ(trace_doc.find("displayTimeUnit")->as_string(), "ms");
  const stats::Json* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), 2 * 6 * 4u);  // m machines * 4 exchanges, B+E
  double previous_ts = 0.0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const stats::Json& event : events->as_array()) {
    const std::string& phase = event.find("ph")->as_string();
    if (phase == "B") ++begins;
    if (phase == "E") ++ends;
    const double ts = event.find("ts")->as_number();
    EXPECT_GE(ts, previous_ts);  // export sorts by timestamp
    previous_ts = ts;
  }
  EXPECT_EQ(begins, ends);

  const stats::Json metrics_doc = stats::Json::parse(slurp(metrics_json));
  ASSERT_TRUE(metrics_doc.is_object());
  const stats::Json* counters = metrics_doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("exchange.count")->as_number(), 24.0);
  EXPECT_NE(metrics_doc.find("gauges")->find("exchange.cmax"), nullptr);
}

TEST(Commands, SimulateRunsAsyncProtocolWithObsOutputs) {
  const std::string path = temp_path("cli_sim.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "100", "--out", path})
                .code,
            0);
  const std::string trace = temp_path("cli_sim_trace.csv");
  const std::string metrics_json = temp_path("cli_sim_metrics.json");
  const auto simulate = run({"simulate", "--in", path, "--duration", "10",
                             "--trace", trace, "--metrics-json",
                             metrics_json});
  ASSERT_EQ(simulate.code, 0) << simulate.err;
  EXPECT_NE(simulate.out.find("(async)"), std::string::npos);
  EXPECT_NE(simulate.out.find("sessions"), std::string::npos);

  std::ifstream trace_file(trace);
  std::string header;
  std::getline(trace_file, header);
  EXPECT_EQ(header, "time,makespan");

  const stats::Json metrics_doc = stats::Json::parse(slurp(metrics_json));
  const stats::Json* counters = metrics_doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("async.sessions.completed"), nullptr);
  EXPECT_NE(counters->find("net.messages"), nullptr);
  EXPECT_NE(counters->find("des.events"), nullptr);
}

TEST(Commands, SimulateRejectsUnknownAlgorithm) {
  const std::string path = temp_path("cli_sim_bad.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result = run({"simulate", "--in", path, "--alg", "nope"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown --alg"), std::string::npos);
}

TEST(Commands, BalanceRejectsUnknownCostModelListingValidKinds) {
  const std::string path = temp_path("cli_cm_bad.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result =
      run({"balance", "--in", path, "--cost-model", "gamma:2"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--cost-model"), std::string::npos);
  EXPECT_NE(result.err.find("unknown distribution 'gamma'"),
            std::string::npos);
  EXPECT_NE(result.err.find("det, normal, lognormal, pareto"),
            std::string::npos);
}

TEST(Commands, BalanceRejectsMalformedCostModelParameters) {
  const std::string path = temp_path("cli_cm_arity.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result =
      run({"balance", "--in", path, "--cost-model", "pareto:2,1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--cost-model"), std::string::npos);
  EXPECT_NE(result.err.find("pareto expects 3 parameters alpha,lo,hi"),
            std::string::npos);
}

TEST(Commands, BalanceRejectsUnknownStochasticKernelListingTheValidSet) {
  const std::string path = temp_path("cli_cm_alg.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result = run({"balance", "--in", path, "--alg", "dlb2c_q99",
                           "--cost-model", "normal:0.3"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown --alg 'dlb2c_q99'"), std::string::npos);
  EXPECT_NE(result.err.find("dlb2c_q95"), std::string::npos);
  EXPECT_NE(result.err.find("dlb2c_effsize"), std::string::npos);
}

TEST(Commands, BalanceWithStochasticKernelReportsRiskFields) {
  const std::string path = temp_path("cli_cm_risk.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "100", "--out", path})
                .code,
            0);
  const std::string metrics = temp_path("cli_cm_risk_metrics.json");
  const auto result =
      run({"balance", "--in", path, "--alg", "dlb2c_q95", "--peer",
           "max-load_q95", "--cost-model", "lognormal:0.5",
           "--exchanges-per-machine", "5", "--metrics-json", metrics});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("final factor"), std::string::npos);
}

TEST(Commands, SolveEveryAlgorithmOnASmallInstance) {
  const std::string path = temp_path("cli_algs.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "2", "--m2", "1",
                 "--jobs", "8", "--hi", "20", "--out", path})
                .code,
            0);
  for (const char* alg : {"list", "lpt", "ect", "minmin", "maxmin",
                          "sufferage", "clb2c", "lenstra", "exact"}) {
    const auto result = run({"solve", "--in", path, "--alg", alg});
    EXPECT_EQ(result.code, 0) << alg << ": " << result.err;
  }
}

TEST(Commands, BalanceMjtbRequiresTypedInstance) {
  const std::string typed = temp_path("cli_typed.inst");
  ASSERT_EQ(run({"gen", "--kind", "typed", "--m", "4", "--jobs", "24",
                 "--types", "3", "--hi", "10", "--out", typed})
                .code,
            0);
  const auto ok = run({"balance", "--in", typed, "--alg", "mjtb",
                       "--exchanges-per-machine", "20"});
  EXPECT_EQ(ok.code, 0) << ok.err;

  const std::string untyped = temp_path("cli_untyped.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "4", "--jobs", "8",
                 "--out", untyped})
                .code,
            0);
  const auto bad = run({"balance", "--in", untyped, "--alg", "mjtb"});
  EXPECT_EQ(bad.code, 2);  // surfaced as a usage error
}

TEST(Commands, MarkovEmitsCsvPdf) {
  const auto result = run({"markov", "--m", "4", "--pmax", "2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("makespan,normalized,probability"),
            std::string::npos);
  EXPECT_NE(result.out.find("thm10_bound"), std::string::npos);
}

TEST(Commands, MissingInputFileFailsCleanly) {
  const auto result = run({"solve", "--in", "/nonexistent/x.inst"});
  EXPECT_EQ(result.code, 1);
  EXPECT_FALSE(result.err.empty());
}

TEST(Commands, GenMultiClusterAndDlbkcBalance) {
  const std::string path = temp_path("cli_multi.inst");
  const auto gen = run({"gen", "--kind", "multi", "--sizes", "3,2,2",
                        "--jobs", "42", "--hi", "50", "--out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("7 machines (3 groups)"), std::string::npos);
  const auto balance = run({"balance", "--in", path, "--alg", "dlbkc",
                            "--exchanges-per-machine", "10"});
  EXPECT_EQ(balance.code, 0) << balance.err;
}

TEST(Commands, GenMultiRejectsMalformedSizes) {
  const auto result = run({"gen", "--kind", "multi", "--sizes", "3,x",
                           "--out", temp_path("bad.inst")});
  EXPECT_EQ(result.code, 2);
  const auto zero = run({"gen", "--kind", "multi", "--sizes", "0,2",
                         "--out", temp_path("bad2.inst")});
  EXPECT_EQ(zero.code, 2);
  // Trailing garbage in an item is malformed, not truncated to "3,2".
  const auto garbage = run({"gen", "--kind", "multi", "--sizes", "3,2x",
                            "--out", temp_path("bad3.inst")});
  EXPECT_EQ(garbage.code, 2);
}

// A negative count is a usage error naming the flag. Wrapped to size_t it
// would mean an endless exchange loop, a vector::reserve failure or a
// vector length error.
void expect_negative_count_rejected(const std::vector<std::string>& argv,
                                    const std::string& key) {
  const auto result = run(argv);
  EXPECT_EQ(result.code, 2) << result.err;
  EXPECT_NE(result.err.find("--" + key + " must be >= 0"), std::string::npos)
      << result.err;
}

TEST(Commands, BalanceRejectsNegativeExchangesPerMachine) {
  const std::string path = temp_path("cli_neg_epm.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  expect_negative_count_rejected(
      {"balance", "--in", path, "--exchanges-per-machine", "-1"},
      "exchanges-per-machine");
}

TEST(Commands, BalanceRejectsNegativeThreads) {
  const std::string path = temp_path("cli_neg_threads.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  expect_negative_count_rejected(
      {"balance", "--in", path, "--engine", "parallel", "--threads", "-1"},
      "threads");
}

TEST(Commands, GenRejectsNegativeMachineCount) {
  expect_negative_count_rejected({"gen", "--kind", "identical", "--m", "-3",
                                  "--out", temp_path("neg_m.inst")},
                                 "m");
}

TEST(Commands, GenRejectsUnknownKind) {
  const auto result =
      run({"gen", "--kind", "quantum", "--out", temp_path("x.inst")});
  EXPECT_EQ(result.code, 2);
}

// ---- serve (open-system workload) ----

TEST(Commands, ServeRunsOpenSystemAndWritesTrace) {
  const std::string path = temp_path("cli_serve.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "3", "--m2", "2",
                 "--jobs", "40", "--hi", "60", "--out", path})
                .code,
            0);
  const std::string trace = temp_path("cli_serve_trace.csv");
  const auto serve =
      run({"serve", "--in", path, "--arrivals", "poisson:0.05",
           "--placement", "two_choices:2", "--repair-every", "25",
           "--repair-budget", "8", "--seed", "9", "--trace", trace});
  ASSERT_EQ(serve.code, 0) << serve.err;
  EXPECT_NE(serve.out.find("open system"), std::string::npos);
  EXPECT_NE(serve.out.find("placement       : two_choices:2"),
            std::string::npos);
  EXPECT_NE(serve.out.find("arrivals        : poisson"), std::string::npos);
  EXPECT_NE(serve.out.find("submitted"), std::string::npos);
  std::ifstream csv(trace);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "burst,makespan");
}

TEST(Commands, ServeIsByteIdenticalAcrossRepairThreadCounts) {
  const std::string path = temp_path("cli_serve_par.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "80", "--out", path})
                .code,
            0);
  std::vector<std::string> base = {
      "serve",          "--in",   path, "--arrivals", "bursty:0.1,0.01,50,25",
      "--repair-every", "20",     "--repair-budget", "6",
      "--repair-engine", "parallel", "--seed", "3"};
  const auto one = run([&] {
    auto argv = base;
    argv.insert(argv.end(), {"--threads", "1"});
    return argv;
  }());
  const auto eight = run([&] {
    auto argv = base;
    argv.insert(argv.end(), {"--threads", "8"});
    return argv;
  }());
  ASSERT_EQ(one.code, 0) << one.err;
  ASSERT_EQ(eight.code, 0) << eight.err;
  // The thread count is echoed in the header line; everything below it —
  // the whole report — must match byte for byte.
  const auto body = [](const std::string& text) {
    return text.substr(text.find('\n') + 1);
  };
  EXPECT_EQ(body(one.out), body(eight.out));
}

TEST(Commands, ServeHaltResumeMatchesUninterrupted) {
  const std::string path = temp_path("cli_serve_halt.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "3", "--m2", "2",
                 "--jobs", "30", "--hi", "40", "--out", path})
                .code,
            0);
  const std::vector<std::string> common = {
      "serve", "--in", path, "--arrivals", "poisson:0.08",
      "--repair-every", "30", "--repair-budget", "4", "--seed", "17"};
  const auto full = run(common);
  ASSERT_EQ(full.code, 0) << full.err;

  const std::string checkpoint = temp_path("cli_serve.ckpt");
  auto halt_argv = common;
  halt_argv.insert(halt_argv.end(), {"--halt-after-events", "11",
                                     "--checkpoint", checkpoint});
  const auto halted = run(halt_argv);
  ASSERT_EQ(halted.code, 0) << halted.err;
  EXPECT_NE(halted.out.find("checkpoint      : " + checkpoint),
            std::string::npos);

  auto resume_argv = common;
  resume_argv.insert(resume_argv.end(), {"--resume", checkpoint});
  const auto resumed = run(resume_argv);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  // The resumed run's report block equals the uninterrupted run's; only
  // the "resumed from" line is extra.
  const auto report_of = [](const std::string& text) {
    return text.substr(text.find("initial"));
  };
  EXPECT_EQ(report_of(resumed.out), report_of(full.out));
}

TEST(Commands, ServeRejectsBadArrivalSpecs) {
  const std::string path = temp_path("cli_serve_bad.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto bad_number =
      run({"serve", "--in", path, "--arrivals", "poisson:fast"});
  EXPECT_EQ(bad_number.code, 2);
  EXPECT_NE(bad_number.err.find("bad number 'fast'"), std::string::npos);
  const auto bad_arity =
      run({"serve", "--in", path, "--arrivals", "bursty:1,2"});
  EXPECT_EQ(bad_arity.code, 2);
  const auto bad_rate =
      run({"serve", "--in", path, "--arrivals", "poisson:0"});
  EXPECT_EQ(bad_rate.code, 2);
  EXPECT_NE(bad_rate.err.find("ArrivalPlan: invalid rate"),
            std::string::npos);
  const auto bad_placement = run({"serve", "--in", path, "--arrivals",
                                  "poisson:0.1", "--placement", "best_fit"});
  EXPECT_EQ(bad_placement.code, 2);
}

// ---- golden cross-commit pins ----
//
// The tests above check substrings; these pin FNV-1a digests of stdout,
// stderr, the exit code and every file a command writes, so a front-end
// change that shifts any byte of any command's output fails here. Each
// test runs in its own empty directory with fixed relative file names,
// because commands echo their paths to stdout.

class CliGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = std::filesystem::current_path();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("cli_golden_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::filesystem::current_path(dir_);
  }
  void TearDown() override {
    std::filesystem::current_path(previous_);
    std::filesystem::remove_all(dir_);
  }

  /// Runs one command and folds its stdout, stderr, exit code and the
  /// bytes of each named output file into the digest.
  void step(const std::vector<std::string>& argv,
            const std::vector<std::string>& files = {}) {
    const CommandResult result = run(argv);
    digest_.add(result.out);
    digest_.add(result.err);
    digest_.add(static_cast<std::uint64_t>(result.code));
    for (const std::string& file : files) digest_.add(slurp(file));
  }

  /// The shared two-cluster instance most runs read.
  void gen_instance() {
    step({"gen", "--m1", "4", "--m2", "2", "--jobs", "48", "--hi", "100",
          "--out", "a.inst"},
         {"a.inst"});
  }

  void expect_digest(std::uint64_t expected) const {
    EXPECT_EQ(digest_.value(), expected)
        << "digest 0x" << std::hex << digest_.value();
  }

  golden::Digest digest_;

 private:
  std::filesystem::path previous_;
  std::filesystem::path dir_;
};

TEST_F(CliGolden, Help) {
  step({"help"});
  expect_digest(0x044C502C34AB026CULL);
}

TEST_F(CliGolden, GenEveryKindTextAndBinary) {
  gen_instance();
  step({"gen", "--kind", "two-cluster", "--m1", "3", "--m2", "2", "--jobs",
        "20", "--seed", "4", "--out", "b.dlbi"},
       {"b.dlbi"});
  step({"gen", "--kind", "identical", "--m", "3", "--jobs", "12", "--lo",
        "2", "--hi", "9", "--out", "c.inst"},
       {"c.inst"});
  step({"gen", "--kind", "unrelated", "--m", "3", "--jobs", "12", "--out",
        "d.inst"},
       {"d.inst"});
  step({"gen", "--kind", "typed", "--m", "4", "--jobs", "24", "--types",
        "3", "--hi", "10", "--out", "e.inst"},
       {"e.inst"});
  step({"gen", "--kind", "multi", "--sizes", "3,2,2", "--jobs", "42",
        "--hi", "50", "--out", "f.dlbi"},
       {"f.dlbi"});
  expect_digest(0x2881376BF2B357D7ULL);
}

TEST_F(CliGolden, ConvertAndInfo) {
  gen_instance();
  step({"convert", "--in", "a.inst", "--out", "b.dlbi"}, {"b.dlbi"});
  step({"convert", "--in", "b.dlbi", "--out", "c.txt", "--to", "text"},
       {"c.txt"});
  step({"convert", "--in", "a.inst", "--out", "d.bin", "--to", "binary"},
       {"d.bin"});
  step({"info", "--in", "a.inst"});
  step({"info", "--in", "b.dlbi"});
  step({"gen", "--kind", "typed", "--m", "4", "--jobs", "24", "--types",
        "3", "--hi", "10", "--out", "typed.inst"});
  step({"info", "--in", "typed.inst"});
  expect_digest(0x99F0482CCC494B53ULL);
}

TEST_F(CliGolden, SolveEveryAlgorithm) {
  step({"gen", "--m1", "2", "--m2", "1", "--jobs", "8", "--hi", "20",
        "--out", "s.inst"});
  for (const char* alg : {"list", "lpt", "ect", "minmin", "maxmin",
                          "sufferage", "clb2c", "lenstra", "exact"}) {
    step({"solve", "--in", "s.inst", "--alg", alg});
  }
  expect_digest(0xD2760EB37F3F701BULL);
}

TEST_F(CliGolden, BalanceSequentialWithTraceAndObs) {
  gen_instance();
  step({"balance", "--in", "a.inst", "--exchanges-per-machine", "4",
        "--seed", "3", "--trace", "t.csv", "--trace-json", "tj.json",
        "--metrics-json", "m.json", "--flight-json", "f.json"},
       {"t.csv", "tj.json", "m.json", "f.json"});
  step({"balance", "--in", "a.inst", "--alg", "dlb2c_q95", "--peer",
        "max-load_q95", "--cost-model", "lognormal:0.5",
        "--exchanges-per-machine", "5", "--metrics-json", "risk.json"},
       {"risk.json"});
  expect_digest(0xBB1355D2E2906E4CULL);
}

TEST_F(CliGolden, BalanceParallelWithTraceAndObs) {
  gen_instance();
  step({"balance", "--in", "a.inst", "--engine", "parallel", "--threads",
        "2", "--exchanges-per-machine", "6", "--seed", "5", "--trace",
        "t.csv", "--trace-json", "tj.json", "--metrics-json", "m.json",
        "--flight-json", "f.json"},
       {"t.csv", "tj.json", "m.json", "f.json"});
  expect_digest(0x6DF634F4F1B78592ULL);
}

TEST_F(CliGolden, BalanceChurnCheckpointResume) {
  gen_instance();
  {
    std::ofstream plan("churn.plan");
    plan << "dlb-churn-plan v1\n"
         << "seed 5 redispatch_per_epoch 0\n"
         << "events 3\n"
         << "2 crash 5\n"
         << "3 drain 4\n"
         << "5 join 5\n";
  }
  for (const char* engine : {"seq", "parallel"}) {
    const std::string ckpt = std::string(engine) + ".ckpt";
    step({"balance", "--in", "a.inst", "--engine", engine, "--threads", "2",
          "--churn-plan", "churn.plan", "--checkpoint", ckpt,
          "--checkpoint-every", "2", "--exchanges-per-machine", "8",
          "--trace", "t.csv"},
         {ckpt, "t.csv"});
    step({"balance", "--in", "a.inst", "--engine", engine, "--threads", "2",
          "--churn-plan", "churn.plan", "--resume", ckpt,
          "--exchanges-per-machine", "12"});
    step({"balance", "--in", "a.inst", "--engine", engine, "--threads", "2",
          "--checkpoint", "late.ckpt", "--checkpoint-every", "99",
          "--exchanges-per-machine", "2"});
  }
  expect_digest(0xFBD52EE23850FDE5ULL);
}

TEST_F(CliGolden, ServeSequentialAndParallelRepair) {
  gen_instance();
  step({"serve", "--in", "a.inst", "--arrivals", "poisson:0.05",
        "--placement", "two_choices:2", "--repair-every", "25",
        "--repair-budget", "8", "--seed", "9", "--trace", "t.csv",
        "--trace-json", "tj.json", "--metrics-json", "m.json",
        "--flight-json", "f.json"},
       {"t.csv", "tj.json", "m.json", "f.json"});
  step({"serve", "--in", "a.inst", "--arrivals", "bursty:0.1,0.01,50,25",
        "--repair-every", "20", "--repair-budget", "6", "--repair-engine",
        "parallel", "--threads", "2", "--seed", "3", "--num-arrivals", "30",
        "--trace", "p.csv"},
       {"p.csv"});
  step({"serve", "--in", "a.inst", "--arrivals", "diurnal:0.02,0.08@40",
        "--placement", "ect", "--seed", "4", "--num-arrivals", "40"});
  expect_digest(0xB463F301FC9E207DULL);
}

TEST_F(CliGolden, ServeHaltResume) {
  gen_instance();
  const std::vector<std::string> common = {
      "serve", "--in", "a.inst", "--arrivals", "poisson:0.08",
      "--repair-every", "30", "--repair-budget", "4", "--seed", "17"};
  auto halt = common;
  halt.insert(halt.end(),
              {"--halt-after-events", "11", "--checkpoint", "s.ckpt"});
  step(halt, {"s.ckpt"});
  auto resume = common;
  resume.insert(resume.end(), {"--resume", "s.ckpt", "--checkpoint",
                               "e.ckpt", "--checkpoint-every-events", "7"});
  step(resume, {"e.ckpt"});
  expect_digest(0x393174D779D99F0DULL);
}

TEST_F(CliGolden, SimulateWithTraceAndObs) {
  gen_instance();
  step({"simulate", "--in", "a.inst", "--duration", "10", "--latency",
        "0.2", "--think", "0.5", "--backoff", "2", "--seed", "6", "--trace",
        "t.csv", "--trace-json", "tj.json", "--metrics-json", "m.json"},
       {"t.csv", "tj.json", "m.json"});
  expect_digest(0xA28FE86B9D6B212BULL);
}

TEST_F(CliGolden, SimulateWithTrace) {
  gen_instance();
  step({"simulate", "--in", "a.inst", "--alg", "dlbkc", "--duration", "15",
        "--seed", "11", "--trace", "s.csv"},
       {"s.csv"});
  expect_digest(0x4497F218C37CA8E5ULL);
}

TEST_F(CliGolden, TransportChaos) {
  gen_instance();
  step({"transport", "--in", "a.inst", "--rounds", "3", "--fault", "chaos",
        "--fault-p", "0.2", "--seed", "2", "--trace-json", "tj.json",
        "--metrics-json", "m.json", "--flight-json", "f.json"},
       {"tj.json", "m.json", "f.json"});
  step({"transport", "--in", "a.inst", "--rounds", "2", "--latency", "0.1",
        "--retry-timeout", "0.3", "--fault-seed", "8"});
  expect_digest(0x1F3612495FED6F02ULL);
}

TEST_F(CliGolden, TraceAndMetricsMergeAndFlight) {
  gen_instance();
  for (const char* seed : {"1", "2"}) {
    step({"transport", "--in", "a.inst", "--rounds", "2", "--seed", seed,
          "--trace-json", std::string("t") + seed + ".json",
          "--metrics-json", std::string("m") + seed + ".json",
          "--flight-json", std::string("f") + seed + ".json"});
  }
  step({"trace-merge", "--in", "t1.json,t2.json", "--out", "merged.json"},
       {"merged.json"});
  step({"metrics-merge", "--in", "m1.json,m2.json", "--out", "mm.json",
        "--stable-out", "stable.json", "--prom", "metrics.prom"},
       {"mm.json", "stable.json", "metrics.prom"});
  step({"flight", "--in", "f1.json"});
  step({"flight", "--in", "f2.json", "--series", "migrations", "--width",
        "30", "--height", "6"});
  expect_digest(0x2C30B794FF7219E6ULL);
}

TEST_F(CliGolden, Markov) {
  step({"markov", "--m", "4", "--pmax", "2"});
  step({"markov"});
  expect_digest(0x40C22E624A8006A2ULL);
}

TEST_F(CliGolden, UsageErrors) {
  gen_instance();
  step({"frobnicate"});
  step({"markov", "--m", "4", "--oops", "1"});
  step({"info"});
  step({"balance", "--in", "a.inst", "--alg", "nope"});
  step({"gen", "--jobs", "4x", "--out", "x.inst"});
  expect_digest(0x9CC9B0C29F90AC3EULL);
}

}  // namespace
}  // namespace dlb::cli
