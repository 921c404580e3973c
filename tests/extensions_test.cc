// Tests for the implemented extensions: approximate queries (row budget),
// the ack-tree termination baseline (Related Work [4]), and graceful
// recovery (§7.1).
#include <gtest/gtest.h>

#include <set>

#include "common/strings.h"
#include "core/engine.h"
#include "net/fault.h"
#include "serialize/encoder.h"
#include "web/synth.h"
#include "web/topologies.h"

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

// -- Approximate queries (row budget) ----------------------------------------

TEST(RowLimitTest, StopsEarlyWithTruncatedFlag) {
  web::SynthWebOptions web_options;
  web_options.seed = 8;
  web_options.num_sites = 8;
  web_options.docs_per_site = 10;
  web_options.title_keyword_prob = 0.8;  // many matches
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" (L|G)*4 d where d.title contains \"alpha\"";

  core::Engine exact_engine(&web);
  auto exact = exact_engine.Run(disql);
  ASSERT_TRUE(exact.ok());
  ASSERT_GT(exact->TotalRows(), 3u);

  core::EngineOptions options;
  options.client.row_limit = 3;
  core::Engine engine(&web, options);
  auto compiled = disql::CompileDisql(disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_TRUE(run->completed);
  EXPECT_TRUE(run->truncated);
  size_t rows = 0;
  for (const relational::ResultSet& rs : run->results) rows += rs.rows.size();
  EXPECT_GE(rows, 3u);
  EXPECT_LT(rows, exact->TotalRows());
  // Every approximate row is a genuine row of the exact answer.
  for (const std::string& key : RowKeys(run->results)) {
    EXPECT_TRUE(RowKeys(exact->results).contains(key)) << key;
  }
  // The early close cut off in-flight work via passive termination.
  EXPECT_GT(engine.network().connection_refused_count() +
                engine.network().dropped_count(),
            0u);
}

TEST(RowLimitTest, LimitAboveAnswerIsExact) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::EngineOptions options;
  options.client.row_limit = 1000;
  core::Engine engine(&scenario.web, options);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  const client::UserSite::QueryRun* run =
      engine.user_site().Find(outcome->id);
  EXPECT_FALSE(run->truncated);
  EXPECT_EQ(outcome->TotalRows(), 4u);  // 1 labs row + 3 convener rows
}

// -- Ack-tree termination (the Related Work [4] baseline) ---------------------

TEST(AckTreeTest, DetectsCompletionOnCampusWeb) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::EngineOptions options;
  options.client.ack_tree_termination = true;
  core::Engine engine(&scenario.web, options);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_EQ(outcome->client_stats.root_acks_received, 1u);
  EXPECT_GT(outcome->server_stats.acks_sent, 0u);
  // Same answers as the CHT design.
  core::Engine reference(&scenario.web);
  auto expected = reference.Run(scenario.disql);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(RowKeys(outcome->results), RowKeys(expected->results));
}

TEST(AckTreeTest, MatchesChtOnRandomWebs) {
  for (uint64_t seed : {3u, 14u, 60u}) {
    web::SynthWebOptions web_options;
    web_options.seed = seed;
    web_options.num_sites = 6;
    web_options.docs_per_site = 7;
    const web::WebGraph web = web::GenerateSynthWeb(web_options);
    const std::string disql =
        "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
        "\" (L|G)*3 d where d.title contains \"alpha\"";

    core::EngineOptions ack_options;
    ack_options.client.ack_tree_termination = true;
    core::Engine ack_engine(&web, ack_options);
    auto ack = ack_engine.Run(disql);
    ASSERT_TRUE(ack.ok());
    EXPECT_TRUE(ack->completed) << seed;

    core::Engine cht_engine(&web);
    auto cht = cht_engine.Run(disql);
    ASSERT_TRUE(cht.ok());
    EXPECT_EQ(RowKeys(ack->results), RowKeys(cht->results)) << seed;

    // The structural trade: acks add one message per clone, the CHT adds
    // entry bytes to reports instead.
    EXPECT_GT(ack_engine.network()
                  .traffic_for(net::MessageType::kAck)
                  .messages,
              0u)
        << seed;
    EXPECT_EQ(
        cht_engine.network().traffic_for(net::MessageType::kAck).messages,
        0u)
        << seed;
    EXPECT_GT(ack->traffic.messages, cht->traffic.messages) << seed;
  }
}

TEST(AckTreeTest, CompletionRobustUnderJitter) {
  web::SynthWebOptions web_options;
  web_options.seed = 17;
  web_options.num_sites = 5;
  web_options.docs_per_site = 8;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" (L|G)*3 d where d.title contains \"alpha\"";
  for (uint64_t jitter_seed = 1; jitter_seed <= 5; ++jitter_seed) {
    core::EngineOptions options;
    options.client.ack_tree_termination = true;
    options.network.latency_jitter = 100 * kMillisecond;
    options.network.jitter_seed = jitter_seed;
    core::Engine engine(&web, options);
    auto outcome = engine.Run(disql);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->completed) << jitter_seed;
  }
}

TEST(AckTreeTest, LostAckBlocksCompletionButNotResults) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::EngineOptions options;
  options.client.ack_tree_termination = true;
  core::Engine engine(&scenario.web, options);
  net::FaultPlan plan;
  net::FaultPlan::Rule lose_first_ack;
  lose_first_ack.type = net::MessageType::kAck;
  lose_first_ack.drop_prob = 1.0;
  lose_first_ack.max_faults = 1;
  plan.AddRule(lose_first_ack);
  engine.network().SetFaultPlan(&plan);
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_FALSE(run->completed);        // safety preserved
  EXPECT_FALSE(run->results.empty());  // results still arrived
}

TEST(AckTreeTest, WebQueryAckFieldsRoundTrip) {
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://a/\" L d");
  ASSERT_TRUE(compiled.ok());
  query::WebQuery wq = compiled->web_query.Clone();
  wq.dest_urls = {"http://a/"};
  wq.ack_mode = true;
  wq.ack_parent_host = "parent.example";
  wq.ack_parent_port = 7000;
  wq.ack_token = 0xDEADBEEFCAFEULL;
  serialize::Encoder enc;
  wq.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  query::WebQuery out;
  ASSERT_TRUE(query::WebQuery::DecodeFrom(&dec, &out).ok());
  EXPECT_TRUE(out.ack_mode);
  EXPECT_EQ(out.ack_parent_host, "parent.example");
  EXPECT_EQ(out.ack_parent_port, 7000);
  EXPECT_EQ(out.ack_token, 0xDEADBEEFCAFEULL);
}

}  // namespace
}  // namespace webdis
