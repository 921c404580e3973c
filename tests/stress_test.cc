// Randomized stress tests: many seeds, random webs, random latency jitter
// (message reordering), every protocol option combination — the distributed
// engine must always terminate, always detect completion, and always return
// exactly the rows the centralized reference computes.
#include <gtest/gtest.h>

#include <set>

#include "common/strings.h"
#include "core/engine.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"
#include "web/synth.h"

namespace webdis {
namespace {

std::set<std::string> RowKeys(
    const std::vector<relational::ResultSet>& results) {
  std::set<std::string> keys;
  for (const relational::ResultSet& rs : results) {
    for (const relational::Tuple& row : rs.rows) {
      std::string key = Join(rs.column_labels, ",") + ":";
      for (const relational::Value& v : row) key += v.ToString() + "|";
      keys.insert(std::move(key));
    }
  }
  return keys;
}

std::string TwoStageQuery() {
  return "select d1.url, d2.url\n"
         "from document d1 such that \"" +
         web::SynthUrl(0, 0) +
         "\" (L|G)*2 d1,\n"
         "where d1.title contains \"alpha\"\n"
         "     document d2 such that d1 (L|G).(L*1) d2,\n"
         "     relinfon r such that r.delimiter = \"hr\",\n"
         "where r.text contains \"beta\"\n";
}

/// Seed-parameterized equivalence sweep under heavy jitter.
class JitterSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitterSweepTest, CompletesAndMatchesReferenceUnderReordering) {
  const uint64_t seed = GetParam();
  web::SynthWebOptions web_options;
  web_options.seed = seed;
  web_options.num_sites = 2 + static_cast<int>(seed % 7);
  web_options.docs_per_site = 3 + static_cast<int>(seed % 9);
  web_options.local_links_per_doc = 1 + static_cast<int>(seed % 4);
  web_options.global_links_per_doc = 1 + static_cast<int>(seed % 3);
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  auto compiled = disql::CompileDisql(TwoStageQuery());
  ASSERT_TRUE(compiled.ok());

  // Reference answer from the centralized engine.
  auto reference = core::RunDataShippingBaseline(web, compiled.value());
  ASSERT_TRUE(reference.ok());
  const std::set<std::string> expected = RowKeys(reference->outcome.results);

  // Distributed run with jitter large enough to reorder everything.
  core::EngineOptions options;
  options.network.latency_jitter = 200 * kMillisecond;
  options.network.jitter_seed = seed * 31 + 7;
  core::Engine engine(&web, options);
  auto outcome = engine.RunCompiled(compiled.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed) << "seed " << seed;
  EXPECT_EQ(RowKeys(outcome->results), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterSweepTest,
                         ::testing::Range<uint64_t>(1, 21));

/// Option-matrix sweep: every combination of the protocol toggles must give
/// the same answers and (with drop-reports on) detect completion.
class OptionMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(OptionMatrixTest, AllRobustConfigurationsAgree) {
  const int bits = GetParam();
  web::SynthWebOptions web_options;
  web_options.seed = 1234;
  web_options.num_sites = 5;
  web_options.docs_per_site = 7;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  auto compiled = disql::CompileDisql(TwoStageQuery());
  ASSERT_TRUE(compiled.ok());

  core::EngineOptions options;
  options.server.dedup_enabled = bits & 1;
  options.server.batch_clones_per_site = bits & 2;
  options.server.batch_reports = bits & 4;
  options.server.share_results = bits & 8;
  options.client.cht_dedup = bits & 16;
  options.network.latency_jitter = 30 * kMillisecond;

  core::Engine engine(&web, options);
  auto outcome = engine.RunCompiled(compiled.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed) << "bits " << bits;

  // One canonical run to compare against.
  core::Engine reference(&web);
  auto expected = reference.RunCompiled(compiled.value());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(RowKeys(outcome->results), RowKeys(expected->results))
      << "bits " << bits;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, OptionMatrixTest,
                         ::testing::Range(0, 32));

/// Unbounded PREs on cyclic webs terminate because the log table recognizes
/// the repeated (state, node) pairs — the derivative of L* is L*.
TEST(UnboundedPreTest, TerminatesOnCyclicWebWithDedup) {
  web::SynthWebOptions web_options;
  web_options.seed = 5;
  web_options.num_sites = 4;
  web_options.docs_per_site = 6;
  web_options.local_links_per_doc = 3;  // dense local cycles
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" L* d where d.title contains \"alpha\"";
  core::Engine engine(&web);
  auto outcome = engine.Run(disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // Every document on site 0 reachable over local links was considered;
  // dedup kept the unbounded traversal finite.
  EXPECT_GT(outcome->server_stats.duplicates_dropped, 0u);
}

/// Graceful recovery (§7.1): a crashed site stalls the query; AbandonStalled
/// hands the outstanding nodes to the centralized fallback and the final
/// answer still matches the reference.
TEST(NodeFailureRecoveryTest, AbandonStalledRecoversAnswers) {
  web::SynthWebOptions web_options;
  web_options.seed = 77;
  web_options.num_sites = 6;
  web_options.docs_per_site = 6;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" (L|G)*3 d where d.title contains \"alpha\"";
  auto compiled = disql::CompileDisql(disql);
  ASSERT_TRUE(compiled.ok());

  auto reference = core::RunDataShippingBaseline(web, compiled.value());
  ASSERT_TRUE(reference.ok());

  core::Engine engine(&web);
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  // Kill a site mid-query: its WEBDIS daemon dies but (as in reality) the
  // plain web server keeps serving documents, so fallback can reach them.
  for (int i = 0; i < 6; ++i) engine.network().RunOne();
  server::QueryServer* victim = engine.server_for(web::SynthHost(2));
  ASSERT_NE(victim, nullptr);
  victim->Stop();
  engine.network().RunUntilIdle();

  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  if (!run->completed) {
    const size_t abandoned = engine.user_site().AbandonStalled(id.value());
    EXPECT_GT(abandoned, 0u);
  }
  EXPECT_TRUE(run->completed);

  // Centralized continuation over HTTP for everything abandoned.
  baseline::DataShippingEngine fallback(core::Engine::kClientHost,
                                        &engine.network());
  auto recovered = fallback.RunFrom(run->compiled, run->fallback_nodes);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  std::set<std::string> combined = RowKeys(run->results);
  for (const std::string& key : RowKeys(recovered->results)) {
    combined.insert(key);
  }
  EXPECT_EQ(combined, RowKeys(reference->outcome.results));
}

/// HTML fuzz: random byte soup must never crash the tokenizer, parser, or
/// database constructor.
TEST(HtmlFuzzTest, RandomBytesNeverCrash) {
  Rng rng(20260704);
  const html::Url url = html::ParseUrl("http://fuzz.example/x").value();
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    const size_t len = rng.Uniform(400);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward markup characters to hit tag paths.
      const char* alphabet = "<>/=\"'abAB &#;-!xyz\n\t";
      soup.push_back(alphabet[rng.Uniform(21)]);
    }
    const html::ParsedDocument doc = html::ParseDocument(url, soup);
    const relational::Database db = server::BuildNodeDatabase(doc);
    EXPECT_NE(db.Find("document"), nullptr);
  }
}

/// Wire fuzz: random bytes fed to every decoder must error out, not crash.
TEST(WireFuzzTest, RandomBytesRejectedCleanly) {
  Rng rng(987);
  for (int round = 0; round < 300; ++round) {
    std::vector<uint8_t> bytes(rng.Uniform(200));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
    {
      serialize::Decoder dec(bytes);
      query::WebQuery out;
      (void)query::WebQuery::DecodeFrom(&dec, &out);
    }
    {
      serialize::Decoder dec(bytes);
      query::QueryReport out;
      (void)query::QueryReport::DecodeFrom(&dec, &out);
    }
    {
      serialize::Decoder dec(bytes);
      (void)pre::Pre::DecodeFrom(&dec);
    }
    {
      serialize::Decoder dec(bytes);
      (void)relational::Expr::DecodeFrom(&dec);
    }
  }
}

/// A malicious/garbled clone delivered to a live server must be rejected
/// without disturbing subsequent well-formed queries.
TEST(WireFuzzTest, GarbageToLiveServerThenRealQuery) {
  web::SynthWebOptions web_options;
  web_options.seed = 3;
  web_options.num_sites = 3;
  web_options.docs_per_site = 4;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  core::Engine engine(&web);
  Rng rng(55);
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> garbage(rng.Uniform(100));
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Next());
    (void)engine.network().Send(
        net::Endpoint{"attacker", 666},
        net::Endpoint{web::SynthHost(0), server::kQueryServerPort},
        net::MessageType::kWebQuery, std::move(garbage));
  }
  engine.network().RunUntilIdle();
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" L*1 d";
  auto outcome = engine.Run(disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_GT(engine.AggregateServerStats().decode_errors, 0u);
}

}  // namespace
}  // namespace webdis
