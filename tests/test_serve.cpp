// rapids serve: job-line parsing onto `rapids flow` arguments, the
// concurrent serve loop, and the contract that a served job's artifacts
// are byte-identical to the equivalent one-shot flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "serve/serve.hpp"
#include "session/session.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(Serve, ParsesFullJobLine) {
  const ServeJob j = parse_serve_job(
      "job1 c432 mode=gsg seed=7 effort=2.5 iters=3 threads=2 verify=0 "
      "out=a.blif metrics=m.json provenance=p.json",
      0);
  EXPECT_EQ(j.id, "job1");
  EXPECT_EQ(j.flow.target, "c432");
  EXPECT_EQ(j.flow.mode, OptMode::Gsg);
  EXPECT_EQ(j.flow.options.placer.seed, 7u);
  EXPECT_DOUBLE_EQ(j.flow.options.placer.effort, 2.5);
  EXPECT_EQ(j.flow.options.opt.max_iterations, 3);
  EXPECT_EQ(j.flow.options.opt.threads, 2);
  EXPECT_FALSE(j.flow.options.verify);
  EXPECT_EQ(j.flow.out_blif, "a.blif");
  EXPECT_EQ(j.flow.out_metrics, "m.json");
  EXPECT_EQ(j.flow.out_provenance, "p.json");
}

TEST(Serve, JobLineParsesLikeFlowArgs) {
  // Every key maps onto its `rapids flow` flag through the one parser, so
  // a job line and the equivalent one-shot arguments are the same FlowJob,
  // and an unset key is the flow default.
  EXPECT_EQ(parse_serve_job("j c432 mode=gsg seed=7 effort=2.5 iters=3 threads=2 "
                            "verify=0 out=a.blif metrics=m.json provenance=p.json",
                            0)
                .flow,
            parse_flow_args({"c432", "--mode", "gsg", "--seed", "7", "--effort", "2.5",
                             "--iters", "3", "--threads", "2", "--no-verify", "--out",
                             "a.blif", "--metrics-json", "m.json", "--provenance",
                             "p.json"}));
  EXPECT_EQ(parse_serve_job("j c499", 0).flow, parse_flow_args({"c499"}));
  // verify= is a switch: the last one wins, like every other key.
  EXPECT_EQ(parse_serve_job("j c499 verify=0 verify=true", 0).flow,
            parse_flow_args({"c499"}));
}

TEST(Serve, RejectsMalformedJobLines) {
  EXPECT_THROW(parse_serve_job("only-an-id", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt bogus-token", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt nope=1", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt seed=notanumber", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt mode=frobnicate", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt threads=0", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt threads=100000", 0), InputError);
  // Whole tokens only: no trailing junk, no sign on an unsigned value, and
  // verify= takes 0|1|true|false. Each of these used to be accepted.
  EXPECT_THROW(parse_serve_job("id ckt seed=-1", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt iters=1x", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt verify=maybe", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt threads=2abc", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt effort=", 0), InputError);
  // A circuit token cannot smuggle in a flow flag.
  EXPECT_THROW(parse_serve_job("id --paranoid", 0), InputError);
  // The error names the job and the flag its key stands for.
  try {
    parse_serve_job("id ckt iters=1x", 3);
    FAIL() << "iters=1x accepted";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("job 3: bad value for --iters: '1x'"),
              std::string::npos)
        << e.what();
  }
  // The line perfbench sends still parses.
  const ServeJob perf = parse_serve_job(
      "p0calu2 /tmp/s/alu2.blif seed=1000 threads=1 verify=1 out=/tmp/o/p0calu2.blif "
      "metrics=/tmp/o/p0calu2.json",
      0);
  EXPECT_EQ(perf.flow.options.placer.seed, 1000u);
  EXPECT_TRUE(perf.flow.options.verify);
  EXPECT_EQ(perf.flow.out_metrics, "/tmp/o/p0calu2.json");
}

TEST(Serve, ProcessLogLevelReachesServedJobs) {
  // One process logger: the level `--log-level` sets must reach a served
  // job's flow lines, and each line carries the job's session tag.
  Logger& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  std::vector<std::string> captured;
  const Logger::Sink old_sink =
      logger.set_sink([&captured](LogLevel, const std::string& message) {
        const char* tag = current_log_tag();
        captured.push_back(std::string(tag != nullptr ? tag : "") + "|" + message);
      });
  logger.set_level(LogLevel::Info);
  const ServeJobResult r =
      run_serve_job(parse_serve_job("logjob c432 effort=1 iters=1", 0));
  logger.set_level(old_level);
  logger.set_sink(old_sink);

  EXPECT_TRUE(r.ok) << r.error;
  const bool found = std::any_of(
      captured.begin(), captured.end(), [](const std::string& line) {
        return line.rfind("logjob|c432: ", 0) == 0 &&
               line.find(" cells, init delay") != std::string::npos;
      });
  EXPECT_TRUE(found) << captured.size() << " lines captured";
}

TEST(Serve, NanEffortFailsTheJobAndServingContinues) {
  // effort=nan parses as a double; the placer must reject it with an
  // InputError (it used to run a 64-move placement and exit 0), and the
  // server must report the job FAILED and go on serving.
  std::istringstream in(
      "bad c432 effort=nan iters=1\n"
      "ok1 c432 effort=1 iters=1\n");
  std::ostringstream out;
  ServeOptions options;
  options.max_concurrent = 1;
  EXPECT_EQ(serve_loop(in, out, options), 1);
  const std::string log = out.str();
  EXPECT_NE(log.find("[serve] bad: FAILED: placer effort must be finite and > 0"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("[serve] ok1: delay"), std::string::npos) << log;
  EXPECT_NE(log.find("2 jobs completed, 1 failed"), std::string::npos) << log;
}

TEST(ServeSlow, BatchJobsMatchOneShotFlows) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> lines = {
      "sj1 c432 seed=5 effort=1 iters=2 threads=2 out=" + dir + "sj1.blif metrics=" +
          dir + "sj1.metrics.json",
      "sj2 c499 seed=9 effort=1 iters=2 out=" + dir + "sj2.blif provenance=" + dir +
          "sj2.prov.json",
  };
  std::istringstream in(lines[0] + "\n" + lines[1] + "\n");
  std::ostringstream out;
  ServeOptions options;
  options.max_concurrent = 2;
  EXPECT_EQ(serve_loop(in, out, options), 0) << out.str();
  for (const char* id : {"sj1", "sj2"}) {
    EXPECT_NE(out.str().find("[serve] " + std::string(id) + ": delay"), std::string::npos)
        << out.str();
  }

  // Reference: the same jobs run one at a time through run_flow_job (what
  // `rapids flow` runs), writing their artifacts elsewhere: the served
  // BLIF and provenance must match byte for byte.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const ServeJob served = parse_serve_job(lines[i], static_cast<int>(i));
    FlowJob ref = served.flow;
    ref.out_blif = dir + served.id + ".ref.blif";
    ref.out_metrics.clear();
    if (!ref.out_provenance.empty()) ref.out_provenance = dir + served.id + ".ref.prov.json";
    SessionContext session(served.id);
    const FlowJobResult run = run_flow_job(ref, lib035(), session);
    ASSERT_TRUE(run.verified) << served.id;
    EXPECT_EQ(read_file(served.flow.out_blif), read_file(ref.out_blif)) << served.id;
    if (!ref.out_provenance.empty()) {
      EXPECT_EQ(read_file(served.flow.out_provenance), read_file(ref.out_provenance))
          << served.id;
    }
  }

  // The per-session JSON artifacts are keyed by the job's session id.
  EXPECT_NE(read_file(dir + "sj1.metrics.json").find("\"session.id\": \"sj1\""),
            std::string::npos);
  EXPECT_NE(read_file(dir + "sj2.prov.json").find("\"session\": \"sj2\""),
            std::string::npos);
}

TEST(ServeSlow, LoopProcessesStreamUntilQuit) {
  std::istringstream in(
      "# comment lines and blanks are skipped\n"
      "\n"
      "not-enough-tokens\n"
      "ok1 c432 effort=1 iters=1\n"
      "quit\n"
      "never c499\n");
  std::ostringstream out;
  ServeOptions options;
  options.max_concurrent = 2;
  const int failed = serve_loop(in, out, options);
  EXPECT_EQ(failed, 1);  // the parse error; ok1 succeeded
  const std::string log = out.str();
  EXPECT_NE(log.find("[serve] ok1:"), std::string::npos) << log;
  EXPECT_NE(log.find("1 job completed, 1 failed"), std::string::npos) << log;
  EXPECT_EQ(log.find("never"), std::string::npos) << log;  // after quit
}

}  // namespace
}  // namespace rapids
