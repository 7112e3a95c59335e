// Pin table: the sim_digest values that CI used to check only run-twice
// and across shard counts, pinned here by value. A change that claims to
// be behavior-preserving must reproduce every row bit for bit.
//
// The two-host and single-loop capacity digests are pinned per scheduler
// policy in test_scheduler.cc, and the serving digest in test_serving.cc;
// this table holds the rest. Every row is the default configuration
// (seed 1, 5 s) that `sim_digest --scenario S [--shards N]` runs.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "app/digest.h"

// As in test_scheduler.cc: the constants hold only for uninstrumented
// builds, because ASan compiles the payload block pool out and the
// digests fold its counters.
#if defined(__SANITIZE_ADDRESS__)
#define MPTCP_DIGEST_CONSTANTS_HOLD 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPTCP_DIGEST_CONSTANTS_HOLD 0
#endif
#endif
#ifndef MPTCP_DIGEST_CONSTANTS_HOLD
#define MPTCP_DIGEST_CONSTANTS_HOLD 1
#endif

namespace mptcp {
namespace {

struct DigestPin {
  const char* name;
  DigestScenario scenario;
  size_t shards;
  const char* digest;
  uint64_t packets;
  uint64_t bytes;
};

void PrintTo(const DigestPin& pin, std::ostream* os) { *os << pin.name; }

const DigestPin kPins[] = {
    // Fleet islands are shard-local: one value for any shard count.
    {"fleet", DigestScenario::kFleet, 0, "ea8ef6b70ca5384e", 34053, 26941236},
    {"fleet_shards4", DigestScenario::kFleet, 4, "ea8ef6b70ca5384e", 34053,
     26941236},
    {"pingpong", DigestScenario::kPingPong, 0, "c9c79ba9eda1eb42", 2631,
     1515520},
    // The sharded capacity cell ring is bit-stable per shard count, not
    // across counts.
    {"capacity_shards1", DigestScenario::kCapacity, 1, "dc2986d1527c60f0",
     574563, 424286800},
    {"capacity_shards2", DigestScenario::kCapacity, 2, "d34cc9a5b4beb310",
     574563, 424286800},
    {"capacity_shards4", DigestScenario::kCapacity, 4, "a8af4164e2dca914",
     574563, 424286800},
};

class DigestPinTable : public ::testing::TestWithParam<DigestPin> {};

TEST_P(DigestPinTable, MatchesRecordedValue) {
#if !MPTCP_DIGEST_CONSTANTS_HOLD
  GTEST_SKIP() << "digest constants are defined for uninstrumented builds";
#endif
  const DigestPin& pin = GetParam();
  DigestConfig cfg;
  cfg.scenario = pin.scenario;
  cfg.shards = pin.shards;
  const DigestResult r = run_digest_scenario(cfg);
  EXPECT_EQ(digest_hex(r.digest), pin.digest);
  EXPECT_EQ(r.packets_hashed, pin.packets);
  EXPECT_EQ(r.bytes_delivered, pin.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Pins, DigestPinTable, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<DigestPin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mptcp
