/**
 * @file
 * End-to-end tests of the `reproduce` driver (WC_REPRODUCE_BIN,
 * injected by CMake): every entry's text against a checked-in golden,
 * thread invariance, the one-run-per-config memo, and argument
 * handling.
 *
 * The golden is the stdout of `reproduce all --sms=2 --only=mum`. mum
 * injects dummy MOVs, so Fig 11 is nonzero. When a change moves a
 * number on purpose, regenerate it from the repo root with
 *
 *   ./build/bench/reproduce all --sms=2 --only=mum > tests/golden/reproduce_mum_sms2.txt
 *
 * and review the diff.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "common/json_parse.hpp"

namespace warpcomp {
namespace {

#ifndef WC_REPRODUCE_BIN
#error "CMake must define WC_REPRODUCE_BIN"
#endif
#ifndef WC_REPRODUCE_GOLDEN
#error "CMake must define WC_REPRODUCE_GOLDEN"
#endif

/** Distinct configs over every entry: 64 config lists share 27 keys. */
constexpr std::size_t kDistinctConfigs = 27;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "wc_reproduce_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct Outcome
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

/** Run `reproduce ARGS`, capturing stdout and stderr. */
Outcome
runReproduce(const std::string &args)
{
    const std::string out_path = tempPath("stdout");
    const std::string err_path = tempPath("stderr");
    const std::string cmd = std::string(WC_REPRODUCE_BIN) + " " + args +
                            " >" + out_path + " 2>" + err_path;
    const int status = std::system(cmd.c_str());
    Outcome o;
    if (status >= 0 && WIFEXITED(status))
        o.exitCode = WEXITSTATUS(status);
    o.out = slurp(out_path);
    o.err = slurp(err_path);
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    return o;
}

TEST(ReproduceProcess, AllMatchesGoldenAndRunsEachConfigOnce)
{
    const std::string json = tempPath("perf.json");
    const Outcome o = runReproduce("all --sms=2 --only=mum --threads=4 "
                                   "--json=" + json);
    ASSERT_EQ(o.exitCode, 0) << o.err;
    EXPECT_EQ(o.out, slurp(WC_REPRODUCE_GOLDEN))
        << "regenerate with the command in this file's header if the "
           "change is intended";

    const JsonParseOutcome parsed = parseJson(slurp(json));
    std::remove(json.c_str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *suites = parsed.value->find("suites");
    ASSERT_NE(suites, nullptr);
    EXPECT_EQ(suites->items.size(), kDistinctConfigs);
}

TEST(ReproduceProcess, OneThreadMatchesGolden)
{
    const Outcome o = runReproduce("all --sms=2 --only=mum --threads=1");
    ASSERT_EQ(o.exitCode, 0) << o.err;
    EXPECT_EQ(o.out, slurp(WC_REPRODUCE_GOLDEN));
}

TEST(ReproduceProcess, Table1RunsNoSimulation)
{
    // table1 is computed from the codec alone: no suite runs, so the
    // perf record is never armed and --json writes nothing.
    const std::string json = tempPath("table1.json");
    const Outcome o = runReproduce("table1 --json=" + json);
    ASSERT_EQ(o.exitCode, 0) << o.err;
    const std::string golden = slurp(WC_REPRODUCE_GOLDEN);
    EXPECT_EQ(o.out, golden.substr(0, o.out.size()));
    EXPECT_EQ(o.out.rfind("== Chunk-size combinations ==\n", 0), 0u);
    EXPECT_NE(o.out.find("<4,0>/<4,1>/<4,2>"), std::string::npos);
    EXPECT_FALSE(std::ifstream(json).good());
}

TEST(ReproduceProcess, NoNameListsNamesAndExits2)
{
    const Outcome o = runReproduce("--sms=2");
    EXPECT_EQ(o.exitCode, 2);
    EXPECT_TRUE(o.out.empty());
    EXPECT_NE(o.err.find("usage: reproduce"), std::string::npos);
    EXPECT_NE(o.err.find("table1 fig02"), std::string::npos) << o.err;
    EXPECT_NE(o.err.find("comparator_rfc"), std::string::npos) << o.err;
}

TEST(ReproduceProcess, UnknownNameListsNamesAndExits2)
{
    // A bad name anywhere refuses the whole command before anything
    // runs, even next to valid names.
    const Outcome o = runReproduce("fig09 fig99 --sms=2 --only=mum");
    EXPECT_EQ(o.exitCode, 2);
    EXPECT_TRUE(o.out.empty());
    EXPECT_NE(o.err.find("unknown name 'fig99'"), std::string::npos)
        << o.err;
    EXPECT_NE(o.err.find("ablation_divergence"), std::string::npos)
        << o.err;
}

} // namespace
} // namespace warpcomp
