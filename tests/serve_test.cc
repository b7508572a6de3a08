// Tests for the silodd subsystem (docs/MODEL.md §11-§12): the shared framing
// layer (including hostile/torn input), the text protocol, the daemon plan's
// bit-identity with the batch scheduler, admission-control edges, the one
// re-solve rule, policy hot-reload, the trace-replay cross-check, the Unix-socket
// transport, and the crash-safety stack — write-ahead journal, torn-tail
// truncation, rid dedup, checkpoint compaction, and the recovery
// bit-identity contract.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/digest.h"
#include "src/common/framing.h"
#include "src/common/rng.h"
#include "src/common/text_codec.h"
#include "src/common/units.h"
#include "src/core/policy_registry.h"
#include "src/serve/journal.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/flow_engine.h"
#include "src/sim/serve_replay.h"
#include "src/workload/trace_gen.h"

namespace silod {
namespace {

// ---------------------------------------------------------------------------
// Framing (satellite: one framing implementation for rt and serve).

TEST(Framing, RoundTripsTypeAndPayload) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ASSERT_TRUE(WriteRawFrame(fds[0], 7, "hello frame").ok());
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(7, frame->type);
  EXPECT_EQ("hello frame", frame->payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(Framing, PeerCloseIsOutOfRange) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  close(fds[0]);
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kOutOfRange, frame.status().code());
  close(fds[1]);
}

TEST(Framing, RejectsOversizeBody) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const std::string big(128, 'x');
  EXPECT_FALSE(WriteRawFrame(fds[0], 1, big, /*max_body=*/64).ok());
  close(fds[0]);
  close(fds[1]);
}

// Hostile input: a peer that dies mid-length-word must read as a mid-frame
// EOF (Internal), not as a clean close (OutOfRange) — the server logs the
// former and silently accepts the latter.
TEST(Framing, TornLengthWordIsMidFrameEof) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const std::uint8_t partial[2] = {0x05, 0x00};  // 2 of the 4 length bytes.
  ASSERT_EQ(2, ::send(fds[0], partial, 2, 0));
  close(fds[0]);
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kInternal, frame.status().code());
  close(fds[1]);
}

TEST(Framing, TornPayloadIsMidFrameEof) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  std::uint8_t header[4];
  PutU32(header, 10);  // Declares a 10-byte body...
  ASSERT_EQ(4, ::send(fds[0], header, 4, 0));
  ASSERT_EQ(3, ::send(fds[0], "abc", 3, 0));  // ... delivers 3, dies.
  close(fds[0]);
  Result<RawFrame> frame = ReadRawFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kInternal, frame.status().code());
  close(fds[1]);
}

// An absurd declared length must be rejected from the 4-byte header alone —
// before any allocation — as must a zero length (no room for the type byte).
TEST(Framing, AbsurdAndZeroDeclaredLengthsRejected) {
  for (const std::uint32_t length : {0xFFFFFFFFu, 0u}) {
    int fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::uint8_t header[4];
    PutU32(header, length);
    ASSERT_EQ(4, ::send(fds[0], header, 4, 0));
    Result<RawFrame> frame = ReadRawFrame(fds[1]);
    ASSERT_FALSE(frame.ok()) << "length " << length;
    EXPECT_EQ(StatusCode::kInternal, frame.status().code());
    close(fds[0]);
    close(fds[1]);
  }
}

// Garbage after a valid frame corrupts only the stream from that point on:
// the first frame still parses, the garbage (whose first 4 bytes decode as
// an absurd length) is rejected instead of being allocated or spun on.
TEST(Framing, GarbageMidStreamDoesNotCorruptEarlierFrames) {
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ASSERT_TRUE(WriteRawFrame(fds[0], 3, "good frame").ok());
  const std::string garbage(32, '\xEE');  // Length word decodes to ~4 GB.
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fds[0], garbage.data(), garbage.size(), 0));
  close(fds[0]);
  Result<RawFrame> first = ReadRawFrame(fds[1]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(3, first->type);
  EXPECT_EQ("good frame", first->payload);
  Result<RawFrame> second = ReadRawFrame(fds[1]);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(StatusCode::kInternal, second.status().code());
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Protocol.

TEST(ServeProto, EscapeRoundTripsHostileBytes) {
  for (const std::string& hostile :
       {std::string("a b%c\n\t=\x01\x7f"), std::string(), std::string("%"),
        std::string("%41"), std::string("\xff\x80 "), std::string("\0x", 2)}) {
    Result<std::string> back = UnescapeToken(EscapeToken(hostile));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(hostile, *back);
  }
}

TEST(ServeProto, RequestRoundTrips) {
  ServeRequest request;
  request.verb = "submit";
  request.args["key"] = "job with spaces";
  request.args["t"] = "12.5";
  Result<ServeRequest> back = ServeRequest::Decode(request.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ("submit", back->verb);
  EXPECT_EQ("job with spaces", back->args.at("key"));
  EXPECT_EQ(12.5, *back->GetDouble("t"));
}

TEST(ServeProto, ResponseCarriesErrorsAndFields) {
  ServeResponse response = ServeResponse::FromStatus(Status::NotFound("no job 'x'"));
  Result<ServeResponse> back = ServeResponse::Decode(response.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back->ok());
  EXPECT_EQ(StatusCode::kNotFound, back->code);
  EXPECT_EQ("no job 'x'", back->error);
}

TEST(ServeProto, RejectsDuplicateKeysAndBadEscapes) {
  EXPECT_FALSE(ServeRequest::Decode("submit key=a key=b").ok());
  EXPECT_FALSE(ServeRequest::Decode("submit key=%zz").ok());
  EXPECT_FALSE(ServeRequest::Decode("").ok());
  EXPECT_FALSE(ServeRequest::Decode("submit =a").ok());
  EXPECT_FALSE(ServeRequest::Decode("submit key").ok());
  EXPECT_FALSE(ServeResponse::Decode("ok a=1 a=2").ok());
  // Numbers are strict: overflow and trailing junk are errors, not clamps.
  Result<ServeRequest> request =
      ServeRequest::Decode("submit gpus=99999999999999999999 io=1e999 n=5x t=1.5");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_FALSE(request->GetInt("gpus").ok());
  EXPECT_FALSE(request->GetDouble("io").ok());
  EXPECT_FALSE(request->GetInt("n").ok());
  EXPECT_FALSE(request->GetInt("t").ok());
  EXPECT_EQ(1.5, *request->GetDouble("t"));
}

// ---------------------------------------------------------------------------
// Plan digests.

TEST(PlanDigest, DistinguishesPlans) {
  AllocationPlan a;
  a.jobs[0].running = true;
  a.jobs[0].gpus = 2;
  AllocationPlan b = a;
  EXPECT_TRUE(PlansBitIdentical(a, b));
  EXPECT_EQ(PlanDigest(a), PlanDigest(b));
  b.jobs[0].gpus = 3;
  EXPECT_FALSE(PlansBitIdentical(a, b));
  EXPECT_NE(PlanDigest(a), PlanDigest(b));
}

// ---------------------------------------------------------------------------
// Service: request handling, admission edges, identity after any sequence.

ServiceConfig SmallCluster(const std::string& policy) {
  ServiceConfig config;
  config.policy = policy;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  config.resources.num_servers = 4;
  return config;
}

ServeRequest Req(const std::string& verb,
                 std::initializer_list<std::pair<const char*, std::string>> args) {
  ServeRequest request;
  request.verb = verb;
  for (const auto& [key, value] : args) {
    request.args[key] = value;
  }
  return request;
}

ServeRequest SubmitReq(const std::string& key, double t, int gpus, Bytes dataset_size) {
  return Req("submit", {{"key", key},
                        {"t", std::to_string(t)},
                        {"gpus", std::to_string(gpus)},
                        {"ideal-io", "100000000"},
                        {"total-bytes", "1000000000000"},
                        {"dataset", "ds-" + key},
                        {"dataset-size", std::to_string(dataset_size)}});
}

class ServiceTest : public ::testing::Test {
 protected:
  void Start(ServiceConfig config) {
    Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  ServeResponse Must(const ServeRequest& request) {
    ServeResponse response = service_->Handle(request);
    EXPECT_TRUE(response.ok()) << request.verb << ": " << response.error;
    return response;
  }

  // The identity anchor: the daemon's current plan must be bit-identical to
  // a fresh batch scheduler solving the daemon's own snapshot.
  void ExpectBatchIdentity() {
    Result<std::shared_ptr<Scheduler>> batch =
        MakeSchedulerByName(service_->policy_name(), SchedulerOptions{});
    ASSERT_TRUE(batch.ok());
    const Snapshot snapshot = service_->MakeSnapshot();
    const AllocationPlan expected = (*batch)->Schedule(snapshot);
    EXPECT_TRUE(PlansBitIdentical(service_->PlanNow(), expected))
        << "daemon plan diverged from batch " << service_->policy_name();
  }

  std::unique_ptr<ServiceState> service_;
};

TEST_F(ServiceTest, IdentityHoldsAfterAnySubmitCompleteCancelSequence) {
  for (const char* policy : {"fifo+silod", "sjf+silod", "gavel+silod", "fifo+coordl"}) {
    Start(SmallCluster(policy));
    Must(SubmitReq("a", 0, 2, GB(400)));
    ExpectBatchIdentity();
    Must(SubmitReq("b", 10, 1, GB(800)));
    Must(SubmitReq("c", 20, 4, TB(1.5)));
    ExpectBatchIdentity();
    Must(Req("progress", {{"key", "a"},
                          {"t", "100"},
                          {"remaining", "500000000000"},
                          {"effective", "50000000000"}}));
    ExpectBatchIdentity();
    Must(Req("complete", {{"key", "b"}, {"t", "200"}}));
    ExpectBatchIdentity();
    Must(SubmitReq("d", 250, 1, GB(200)));
    Must(Req("cancel", {{"key", "c"}, {"t", "300"}}));
    ExpectBatchIdentity();
  }
}

TEST_F(ServiceTest, AdmissionEdges) {
  ServiceConfig config = SmallCluster("fifo+silod");
  config.admission.max_gpu_load = 1.0;
  config.admission.max_queue = 1;
  Start(std::move(config));

  // Exactly at the threshold (8/8) admits.
  ServeResponse r1 = Must(SubmitReq("fills", 0, 8, GB(100)));
  EXPECT_EQ("admitted", r1.fields.at("decision"));

  // Strictly past it queues.
  ServeResponse r2 = Must(SubmitReq("queued", 1, 1, GB(100)));
  EXPECT_EQ("queued", r2.fields.at("decision"));

  // Queue full: rejected cleanly, key not burned.
  ServeResponse r3 = service_->Handle(SubmitReq("rejected", 2, 1, GB(100)));
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, r3.code);

  // Duplicate job id rejected cleanly without disturbing the original.
  ServeResponse dup = service_->Handle(SubmitReq("fills", 3, 1, GB(100)));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, dup.code);
  EXPECT_EQ("active", Must(Req("query", {{"key", "fills"}})).fields.at("state"));

  // Cancel of a queued (never-admitted) job works and leaves no trace in the
  // scheduler; the planner was never told about it.
  ServeResponse cancel = Must(Req("cancel", {{"key", "queued"}, {"t", "4"}}));
  EXPECT_EQ("cancelled", cancel.fields.at("state"));
  EXPECT_EQ("queued", cancel.fields.at("was"));
  EXPECT_EQ(0u, service_->jobs().CountState(ServeJobState::kQueued));

  // Completion frees load and promotes the next queued submission.
  ServeResponse r4 = Must(SubmitReq("waits", 5, 2, GB(100)));
  EXPECT_EQ("queued", r4.fields.at("decision"));
  Must(Req("complete", {{"key", "fills"}, {"t", "6"}}));
  EXPECT_EQ("active", Must(Req("query", {{"key", "waits"}})).fields.at("state"));
  ExpectBatchIdentity();
}

// The one re-solve rule: a request that changes what the scheduler sees
// (admission, completion, active cancel, progress, policy reload) costs
// exactly one full solve, however many events it notes; every other request
// costs none, and nothing stays pending between requests.
TEST_F(ServiceTest, EachSchedulerVisibleEventSolvesOnce) {
  ServiceConfig config = SmallCluster("fifo+silod");
  config.admission.max_gpu_load = 1.0;
  Start(std::move(config));
  const struct {
    ServeRequest request;
    std::uint64_t solves;
    const char* what;
  } steps[] = {
      {Req("plan", {}), 1, "first plan (the initial event)"},
      {SubmitReq("a", 0, 4, GB(100)), 1, "admitted submit"},
      {Req("query", {{"key", "a"}}), 0, "query"},
      {Req("stats", {}), 0, "stats"},
      {Req("plan", {{"t", "1"}}), 0, "plan with nothing pending"},
      {Req("progress", {{"key", "a"}, {"t", "2"}, {"remaining", "500000000000"}}), 1,
       "progress"},
      {SubmitReq("b", 3, 4, GB(100)), 1, "admitted submit at the threshold"},
      {SubmitReq("q1", 4, 2, GB(100)), 0, "queued submit"},
      {SubmitReq("q2", 5, 8, GB(100)), 0, "queued submit behind q1"},
      {SubmitReq("q3", 6, 1, GB(100)), 0, "queued submit behind q2"},
      {Req("cancel", {{"key", "q3"}, {"t", "7"}}), 0, "queued cancel, no promotion"},
      {Req("reload-policy", {{"policy", "sjf+silod"}}), 1, "reload-policy"},
      {Req("cancel", {{"key", "a"}, {"t", "8"}}), 1, "active cancel promoting q1"},
      {Req("cancel", {{"key", "q2"}, {"t", "9"}}), 0, "queued head cancel, nothing behind"},
      {Req("complete", {{"key", "b"}, {"t", "10"}}), 1, "complete"},
      {Req("plan", {}), 0, "plan with nothing pending"},
  };
  for (const auto& step : steps) {
    const std::uint64_t solves = service_->full_solves();
    const std::uint64_t reused = service_->reused_plans();
    Must(step.request);
    EXPECT_EQ(solves + step.solves, service_->full_solves()) << step.what;
    EXPECT_EQ(0u, service_->pending_events()) << step.what;
    if (step.request.verb == "plan") {
      EXPECT_EQ(reused + 1 - step.solves, service_->reused_plans()) << step.what;
    } else {
      EXPECT_EQ(reused, service_->reused_plans()) << step.what;
    }
  }
  EXPECT_EQ("active", Must(Req("query", {{"key", "q1"}})).fields.at("state"));
  EXPECT_EQ("sjf+silod", Must(Req("stats", {})).fields.at("policy"));
  ExpectBatchIdentity();
}

// Bad storage resources are refused at construction: a negative egress would
// otherwise abort the Gavel solve on the daemon's first submit.
TEST(ServiceConfigTest, RejectsNegativeOrNonFiniteStorageResources) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ClusterResources> bad;
  for (const double rate : {-1.0, nan, inf}) {
    ClusterResources r = SmallCluster("gavel+silod").resources;
    r.remote_io = rate;
    bad.push_back(r);
  }
  for (const double cap : {-5.0, nan}) {
    ClusterResources r = SmallCluster("gavel+silod").resources;
    r.per_job_remote_cap = cap;
    bad.push_back(r);
  }
  bad.push_back(SmallCluster("gavel+silod").resources);
  bad.back().total_cache = -1;
  for (const int servers : {0, -2}) {
    ClusterResources r = SmallCluster("gavel+silod").resources;
    r.num_servers = servers;
    bad.push_back(r);
  }
  for (const ClusterResources& resources : bad) {
    ServiceConfig config = SmallCluster("gavel+silod");
    config.resources = resources;
    Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, service.status().code());
  }

  // The tools' flag helper: same rules in flag units, 0 = no per-job cap,
  // and a refused value leaves the resources untouched.
  ClusterResources r;
  ASSERT_TRUE(SetStorageFromFlags(2, 1.6, 0, &r).ok());
  EXPECT_EQ(r.total_cache, TB(2));
  EXPECT_EQ(r.remote_io, Gbps(1.6));
  EXPECT_EQ(r.per_job_remote_cap, kUnlimitedRate);
  ASSERT_TRUE(SetStorageFromFlags(0, 0, 50, &r).ok());
  EXPECT_EQ(r.per_job_remote_cap, MBps(50));
  const ClusterResources before = r;
  for (const auto& [cache_tb, egress_gbps, cap_mbps] :
       std::vector<std::tuple<double, double, double>>{{-1, 1, 0},
                                                       {nan, 1, 0},
                                                       {inf, 1, 0},
                                                       {1, -1, 0},
                                                       {1, nan, 0},
                                                       {1, inf, 0},
                                                       {1, 1, -5},
                                                       {1, 1, nan}}) {
    const Status st = SetStorageFromFlags(cache_tb, egress_gbps, cap_mbps, &r);
    EXPECT_EQ(StatusCode::kInvalidArgument, st.code())
        << cache_tb << " " << egress_gbps << " " << cap_mbps;
    EXPECT_EQ(r.total_cache, before.total_cache);
    EXPECT_EQ(r.remote_io, before.remote_io);
    EXPECT_EQ(r.per_job_remote_cap, before.per_job_remote_cap);
  }

  // The edge values stay legal: a Gavel daemon with no cache and no egress
  // plans without aborting.
  ServiceConfig config = SmallCluster("gavel+silod");
  config.resources.total_cache = 0;
  config.resources.remote_io = 0;
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->Handle(SubmitReq("a", 0, 2, GB(400))).ok());
}

TEST_F(ServiceTest, ReloadPolicySwapsSchedulerAndCachePair) {
  Start(SmallCluster("fifo+silod"));
  Must(SubmitReq("a", 0, 1, GB(400)));
  Must(SubmitReq("b", 1, 1, GB(800)));
  EXPECT_EQ("fifo+silod", service_->policy_name());

  ServeResponse reload = Must(Req("reload-policy", {{"policy", "gavel+coordl"}}));
  EXPECT_EQ("gavel+coordl", reload.fields.at("policy"));
  const AllocationPlan& plan = service_->PlanNow();
  EXPECT_EQ(CacheModelKind::kPerJobStatic, plan.cache_model);

  // Unknown policies are rejected and the old one stays live.
  ServeResponse bad = service_->Handle(Req("reload-policy", {{"policy", "nope+silod"}}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ("gavel+coordl", service_->policy_name());

  ServeResponse back = Must(Req("reload-policy", {{"policy", "sjf+silod"}}));
  EXPECT_EQ("sjf+silod", back.fields.at("policy"));
  ExpectBatchIdentity();
}

TEST_F(ServiceTest, StatsAndQueryAndErrors) {
  Start(SmallCluster("fifo+silod"));
  Must(SubmitReq("a", 0, 2, GB(400)));
  ServeResponse stats = Must(Req("stats", {}));
  EXPECT_EQ("1", stats.fields.at("active"));
  EXPECT_EQ("2", stats.fields.at("gpu-demand"));
  EXPECT_EQ("fifo+silod", stats.fields.at("policy"));
  EXPECT_FALSE(service_->Handle(Req("query", {{"key", "nope"}})).ok());
  EXPECT_FALSE(service_->Handle(Req("frobnicate", {})).ok());
  EXPECT_FALSE(service_->Handle(Req("complete", {{"key", "a"}})).ok());  // No t.
  // Dataset interning: same name must agree on size.
  ServeResponse clash = service_->Handle(Req("submit", {{"key", "x"},
                                                        {"t", "1"},
                                                        {"gpus", "1"},
                                                        {"ideal-io", "1000"},
                                                        {"total-bytes", "1000"},
                                                        {"dataset", "ds-a"},
                                                        {"dataset-size", "12345"}}));
  EXPECT_FALSE(clash.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, clash.code);
}

// ---------------------------------------------------------------------------
// Trace replay cross-check (satellite: --serve-trace's engine).

TEST(ServeReplay, DaemonReportMatchesBatchEngine) {
  TraceOptions options;
  options.num_jobs = 12;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(20);
  options.seed = 5;
  const Trace trace = TraceGenerator(options).Generate();
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  for (const char* policy : {"fifo+silod", "sjf+silod"}) {
    Result<ReplayOutcome> outcome = ReplayTraceThroughService(
        trace, config, policy, SchedulerOptions{});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->jct_identical)
        << policy << "\nbatch:\n"
        << outcome->batch.ToJson().Format() << "\nserve:\n"
        << outcome->serve.ToJson().Format();
    EXPECT_EQ(0, outcome->serve.unfinished_jobs);
  }
}

// Heterogeneous fleet replay: the daemon must agree bit-for-bit with the
// typed batch engine — the submit verb round-trips tenants and per-type speed
// factors, the plans assign the same GPU types, and both reports carry the
// same per-tenant and per-GPU-type breakdowns.  A uniform (all speed 1.0)
// table must in turn match the untyped run exactly.
TEST(ServeReplay, TypedFleetReportMatchesBatchEngine) {
  TraceOptions options;
  options.num_jobs = 12;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(20);
  options.seed = 5;
  Trace trace = TraceGenerator(options).Generate();
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    trace.jobs[i].tenant = i % 2 == 0 ? "ads" : "search";
    if (i % 3 == 0) {
      trace.jobs[i].speed_factors = {{"k80", 0.8}};
    }
  }
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  Result<ClusterTopology> typed = ClusterTopology::Parse(
      "gpu-type name=v100 count=5 speed=1;gpu-type name=k80 count=3 speed=0.5");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.topology = *typed;
  Result<ReplayOutcome> outcome = ReplayTraceThroughService(
      trace, config, "sjf+silod", SchedulerOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->jct_identical)
      << "batch:\n" << outcome->batch.ToJson().Format() << "\nserve:\n"
      << outcome->serve.ToJson().Format();
  EXPECT_EQ(0, outcome->serve.unfinished_jobs);
  ASSERT_EQ(outcome->batch.tenants.size(), outcome->serve.tenants.size());
  ASSERT_EQ(outcome->batch.gpu_types.size(), outcome->serve.gpu_types.size());
  for (std::size_t i = 0; i < outcome->batch.gpu_types.size(); ++i) {
    EXPECT_EQ(outcome->batch.gpu_types[i].name, outcome->serve.gpu_types[i].name);
    EXPECT_EQ(outcome->batch.gpu_types[i].jct.finished,
              outcome->serve.gpu_types[i].jct.finished);
  }

  // Uniform table: the typed run collapses to the untyped one bit-for-bit.
  SimConfig untyped_config = config;
  untyped_config.topology = ClusterTopology();
  Result<ReplayOutcome> untyped = ReplayTraceThroughService(
      trace, untyped_config, "sjf+silod", SchedulerOptions{});
  ASSERT_TRUE(untyped.ok()) << untyped.status().ToString();
  SimConfig uniform_config = config;
  uniform_config.topology = *ClusterTopology::Parse("gpu-type name=any count=8 speed=1");
  Result<ReplayOutcome> uniform = ReplayTraceThroughService(
      trace, uniform_config, "sjf+silod", SchedulerOptions{});
  ASSERT_TRUE(uniform.ok()) << uniform.status().ToString();
  EXPECT_TRUE(JctSummariesIdentical(untyped->batch, uniform->batch));
  EXPECT_TRUE(JctSummariesIdentical(untyped->serve, uniform->serve));
}

// ---------------------------------------------------------------------------
// Socket transport.

TEST(UnixServer, ServesClientsUntilShutdown) {
  ServiceConfig config = SmallCluster("fifo+silod");
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(std::move(config));
  ASSERT_TRUE(service.ok());
  const std::string path = ::testing::TempDir() + "/silodd_test.sock";
  UnixServer server(path, service->get());
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&server] { EXPECT_TRUE(server.Serve().ok()); });

  Result<ServeResponse> submit = CallServe(path, SubmitReq("a", 0, 1, GB(100)));
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  EXPECT_TRUE(submit->ok()) << submit->error;
  EXPECT_EQ("admitted", submit->fields.at("decision"));

  // A persistent client interleaved with one-shot clients.
  Result<ServeClient> client = ServeClient::Connect(path);
  ASSERT_TRUE(client.ok());
  Result<ServeResponse> stats = client->Call(Req("stats", {}));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ("1", stats->fields.at("active"));

  Result<ServeResponse> shutdown = client->Call(Req("shutdown", {}));
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(shutdown->ok());
  loop.join();
}

// A connected client whose server never answers must hit the --timeout-ms
// deadline instead of blocking forever: bind+listen without accept leaves
// the connect queued in the backlog (so Connect succeeds) and the read arm
// of Call trips SO_RCVTIMEO.
TEST(UnixServer, CallDeadlineFiresAgainstUnresponsivePeer) {
  const std::string path = ::testing::TempDir() + "/silodd_dead.sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(0, ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  ASSERT_EQ(0, ::listen(listener, 1));

  ClientOptions options;
  options.timeout_ms = 200;
  Result<ServeClient> client = ServeClient::Connect(path, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<ServeResponse> response = client->Call(Req("stats", {}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, response.status().code());

  close(listener);
  ::unlink(path.c_str());

  // A socket that does not exist at all fails fast, not via the deadline.
  EXPECT_FALSE(ServeClient::Connect(path, options).ok());
}

// ---------------------------------------------------------------------------
// Write-ahead journal (docs/MODEL.md §12): on-disk format, torn tails,
// compaction.

std::uint64_t FileSize(const std::string& path) {
  struct stat st;
  std::memset(&st, 0, sizeof(st));
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

void AppendRawBytes(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()), ::write(fd, bytes.data(), bytes.size()));
  close(fd);
}

void FlipByteAt(const std::string& path, std::uint64_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  std::uint8_t byte = 0;
  ASSERT_EQ(1, ::pread(fd, &byte, 1, static_cast<off_t>(offset)));
  byte ^= 0xFF;
  ASSERT_EQ(1, ::pwrite(fd, &byte, 1, static_cast<off_t>(offset)));
  close(fd);
}

std::string FreshJournalPath(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/journal_" + tag + ".wal";
  std::remove(path.c_str());
  return path;
}

JournalOptions JournalOpts(const std::string& path) {
  JournalOptions options;
  options.path = path;
  options.sync = JournalSyncMode::kAlways;
  return options;
}

std::unique_ptr<Journal> MustOpen(const JournalOptions& options, JournalScan* scan) {
  Result<std::unique_ptr<Journal>> journal = Journal::Open(options, scan);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return journal.ok() ? std::move(journal).value() : nullptr;
}

TEST(Journal, ParseSyncSpec) {
  JournalOptions options;
  ASSERT_TRUE(ParseJournalSyncSpec("always", &options).ok());
  EXPECT_EQ(JournalSyncMode::kAlways, options.sync);
  ASSERT_TRUE(ParseJournalSyncSpec("none", &options).ok());
  EXPECT_EQ(JournalSyncMode::kNone, options.sync);
  ASSERT_TRUE(ParseJournalSyncSpec("batch:8", &options).ok());
  EXPECT_EQ(JournalSyncMode::kBatch, options.sync);
  EXPECT_EQ(8u, options.batch_frames);
  EXPECT_FALSE(ParseJournalSyncSpec("batch:0", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("batch:x", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("batch:", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("sometimes", &options).ok());
  EXPECT_FALSE(ParseJournalSyncSpec("", &options).ok());
}

TEST(Journal, AppendAndReopenRoundTrip) {
  const std::string path = FreshJournalPath("roundtrip");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    EXPECT_EQ(0u, scan.records);
    ASSERT_TRUE(journal->AppendRequest("submit key=a t=0").ok());
    ASSERT_TRUE(journal->AppendRequest("submit key=b t=1").ok());
    ASSERT_TRUE(journal->AppendRequest("complete key=a t=5").ok());
  }
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  EXPECT_FALSE(scan.has_checkpoint);
  EXPECT_EQ(3u, scan.records);
  EXPECT_EQ(0u, scan.dropped_bytes);
  ASSERT_EQ(3u, scan.requests.size());
  EXPECT_EQ("submit key=a t=0", scan.requests[0]);
  EXPECT_EQ("complete key=a t=5", scan.requests[2]);
}

TEST(Journal, TornTailTruncatedOnOpenAndAppendsResume) {
  const std::string path = FreshJournalPath("torn");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest("alpha").ok());
    ASSERT_TRUE(journal->AppendRequest("beta").ok());
    ASSERT_TRUE(journal->AppendRequest("gamma").ok());
  }
  // Cut 3 bytes into gamma's record: a crash mid-append.
  const std::uint64_t full = FileSize(path);
  ASSERT_EQ(0, ::truncate(path.c_str(), static_cast<off_t>(full - 3)));
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_EQ(2u, scan.requests.size());
    EXPECT_EQ("beta", scan.requests[1]);
    EXPECT_GT(scan.dropped_bytes, 0u);
    // The torn bytes are gone from disk and appends land cleanly after them.
    ASSERT_TRUE(journal->AppendRequest("delta").ok());
  }
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  EXPECT_EQ(0u, scan.dropped_bytes);
  ASSERT_EQ(3u, scan.requests.size());
  EXPECT_EQ("delta", scan.requests[2]);
}

TEST(Journal, CrcCorruptionStopsTheScan) {
  const std::string path = FreshJournalPath("crc");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest("alpha").ok());
    ASSERT_TRUE(journal->AppendRequest("beta").ok());
    ASSERT_TRUE(journal->AppendRequest("gamma").ok());
  }
  // Flip a payload byte inside beta: its CRC fails, so beta AND everything
  // after it are treated as torn (the scan cannot trust record boundaries
  // past a corrupt record).
  const std::uint64_t alpha_size =
      EncodeJournalRecord(JournalRecordType::kRequest, "alpha").size();
  FlipByteAt(path, alpha_size + 4 + 4 + 1 + 1);  // len + crc + type + 1 byte in.
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  ASSERT_EQ(1u, scan.requests.size());
  EXPECT_EQ("alpha", scan.requests[0]);
  EXPECT_GT(scan.dropped_bytes, 0u);
  EXPECT_EQ(alpha_size, FileSize(path));
}

TEST(Journal, AbsurdLengthTailTreatedAsTorn) {
  const std::string path = FreshJournalPath("absurd");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest("alpha").ok());
  }
  std::uint8_t header[8];
  PutU32(header, 0xFFFFFFF0u);  // Way past kMaxJournalRecordBytes.
  PutU32(header + 4, 0);
  AppendRawBytes(path, std::string(reinterpret_cast<char*>(header), sizeof(header)));
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  ASSERT_EQ(1u, scan.requests.size());
  EXPECT_EQ(8u, scan.dropped_bytes);
}

TEST(Journal, CompactionReplacesTailWithCheckpoint) {
  const std::string path = FreshJournalPath("compact");
  {
    JournalScan scan;
    std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
    ASSERT_NE(nullptr, journal);
    ASSERT_TRUE(journal->AppendRequest(std::string(512, 'x')).ok());
    ASSERT_TRUE(journal->AppendRequest(std::string(512, 'y')).ok());
    const std::uint64_t before = journal->size_bytes();
    ASSERT_TRUE(journal->Compact("checkpoint payload").ok());
    EXPECT_LT(journal->size_bytes(), before);
    EXPECT_EQ(1u, journal->compactions());
    // Appends after compaction extend the compacted file.
    ASSERT_TRUE(journal->AppendRequest("after").ok());
  }
  JournalScan scan;
  std::unique_ptr<Journal> journal = MustOpen(JournalOpts(path), &scan);
  ASSERT_NE(nullptr, journal);
  EXPECT_TRUE(scan.has_checkpoint);
  EXPECT_EQ("checkpoint payload", scan.checkpoint);
  ASSERT_EQ(1u, scan.requests.size());
  EXPECT_EQ("after", scan.requests[0]);
}

// ---------------------------------------------------------------------------
// Crash-safe service: recovery bit-identity, rid dedup, checkpoint verb,
// auto-compaction (docs/MODEL.md §12).

ServeRequest WithRid(ServeRequest request, std::uint64_t rid) {
  request.args["rid"] = std::to_string(rid);
  return request;
}

class ServiceJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = FreshJournalPath(::testing::UnitTest::GetInstance()->current_test_info()->name());
  }

  JournalOptions Opts() { return JournalOpts(path_); }

  std::unique_ptr<ServiceState> Recover(ServiceConfig config, const JournalOptions& options,
                                        RecoveryInfo* recovery) {
    Result<std::unique_ptr<ServiceState>> service =
        ServiceState::CreateFromJournal(std::move(config), options, recovery);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return service.ok() ? std::move(service).value() : nullptr;
  }

  ServeResponse Must(ServiceState* service, const ServeRequest& request) {
    ServeResponse response = service->Handle(request);
    EXPECT_TRUE(response.ok()) << request.verb << ": " << response.error;
    return response;
  }

  std::string path_;
};

TEST_F(ServiceJournalTest, RecoveryRebuildsStateBitIdentically) {
  std::uint64_t digest = 0;
  std::uint64_t plan_digest = 0;
  std::string report;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    EXPECT_FALSE(recovery.from_checkpoint);
    EXPECT_EQ(0u, recovery.replayed_requests);
    // Exercise every journaled verb class: submits, progress, a forced plan
    // (stamps first-start times), a completion, a policy hot-swap, a cancel.
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
    Must(service.get(), WithRid(Req("progress", {{"key", "a"},
                                                 {"t", "100"},
                                                 {"remaining", "500000000000"},
                                                 {"effective", "50000000000"}}),
                                3));
    Must(service.get(), WithRid(Req("plan", {{"t", "150"}}), 4));
    Must(service.get(), WithRid(Req("complete", {{"key", "b"}, {"t", "200"}}), 5));
    Must(service.get(), WithRid(Req("reload-policy", {{"policy", "fifo+silod"}}), 6));
    Must(service.get(), WithRid(SubmitReq("c", 250, 4, TB(1.5)), 7));
    Must(service.get(), WithRid(Req("cancel", {{"key", "c"}, {"t", "300"}}), 8));
    digest = service->StateDigest();
    plan_digest = PlanDigest(service->PlanNow());
    report = service->Report().ToJson().Format();
    // SIGKILL: the service dies here without Sync or graceful teardown; the
    // kAlways journal already has every frame on disk.
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_EQ(8u, recovery.replayed_requests);
  EXPECT_EQ(0u, recovery.replayed_errors);
  EXPECT_EQ(0u, recovery.dropped_bytes);
  EXPECT_EQ(digest, service->StateDigest()) << "recovered state diverged";
  EXPECT_EQ(plan_digest, PlanDigest(service->PlanNow())) << "recovered plan diverged";
  EXPECT_EQ(report, service->Report().ToJson().Format()) << "recovered report diverged";
  EXPECT_EQ("fifo+silod", service->policy_name());  // The hot-swap replayed.
}

TEST_F(ServiceJournalTest, RidDedupMakesRetriesExactlyOnce) {
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  const ServeRequest submit = WithRid(SubmitReq("a", 0, 2, GB(400)), 7);
  ServeResponse first = Must(service.get(), submit);
  EXPECT_EQ(0u, first.fields.count("duplicate"));
  const std::uint64_t digest = service->StateDigest();

  // The exact retry and a stale lower rid are both acknowledged without
  // touching state or the journal.
  for (const ServeRequest& retry : {submit, WithRid(Req("complete", {{"key", "a"}, {"t", "9"}}), 3)}) {
    ServeResponse response = Must(service.get(), retry);
    EXPECT_EQ("1", response.fields.at("duplicate"));
    EXPECT_EQ("7", response.fields.at("last-rid"));
  }
  EXPECT_EQ(digest, service->StateDigest());
  EXPECT_EQ(1u, service->journal()->appended_records());

  // Non-positive rids are rejected before touching the journal.
  EXPECT_FALSE(service->Handle(WithRid(SubmitReq("bad", 1, 1, GB(100)), 0)).ok());

  ServeResponse stats = Must(service.get(), Req("stats", {}));
  EXPECT_EQ("7", stats.fields.at("last-rid"));
  EXPECT_EQ("2", stats.fields.at("duplicates"));

  // Dedup state survives recovery: last_rid_ is rebuilt from the replayed
  // frames, so a client resending its in-flight request after a daemon
  // restart still gets the duplicate ack.
  service.reset();
  service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  ServeResponse after = Must(service.get(), submit);
  EXPECT_EQ("1", after.fields.at("duplicate"));
  EXPECT_EQ(digest, service->StateDigest());
}

TEST_F(ServiceJournalTest, CheckpointVerbCompactsAndRecoveryMatches) {
  std::uint64_t digest = 0;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
    Must(service.get(), WithRid(Req("complete", {{"key", "a"}, {"t", "50"}}), 3));
    ServeResponse checkpoint = Must(service.get(), Req("checkpoint", {}));
    EXPECT_EQ("1", checkpoint.fields.at("compactions"));
    // Mutations after the checkpoint land as request records behind it.
    Must(service.get(), WithRid(SubmitReq("c", 60, 1, GB(200)), 4));
    digest = service->StateDigest();
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(1u, recovery.replayed_requests);  // Only the post-checkpoint tail.
  EXPECT_EQ(digest, service->StateDigest());
  // And the recovered daemon keeps serving: rid 4 dedupes, rid 5 applies.
  ServeResponse dup = Must(service.get(), WithRid(SubmitReq("c", 60, 1, GB(200)), 4));
  EXPECT_EQ("1", dup.fields.at("duplicate"));
  Must(service.get(), WithRid(Req("complete", {{"key", "c"}, {"t", "100"}}), 5));
}

// Cancelling a queued job re-runs promotion.  With A active (4 of 8 GPUs),
// B (8 GPUs) queued at the head and C (2 GPUs) behind it, cancelling B must
// admit C at once; before, C stayed queued, and every later submit queued
// behind it, until some active job ended.  Journal recovery replays the
// same promotion.
TEST_F(ServiceTest, CancellingQueuedHeadPromotesTheQueue) {
  ServiceConfig config = SmallCluster("fifo+silod");
  config.admission.max_gpu_load = 1.0;
  const ServeRequest requests[] = {
      WithRid(SubmitReq("A", 0, 4, GB(100)), 1),
      WithRid(SubmitReq("B", 1, 8, GB(100)), 2),
      WithRid(SubmitReq("C", 2, 2, GB(100)), 3),
      WithRid(Req("cancel", {{"key", "B"}, {"t", "3"}}), 4),
      WithRid(SubmitReq("D", 4, 2, GB(100)), 5),
  };
  Start(config);
  std::vector<ServeResponse> responses;
  for (const ServeRequest& request : requests) {
    responses.push_back(Must(request));
  }
  EXPECT_EQ("admitted", responses[0].fields.at("decision"));
  EXPECT_EQ("queued", responses[1].fields.at("decision"));
  EXPECT_EQ("queued", responses[2].fields.at("decision"));
  EXPECT_EQ("queued", responses[3].fields.at("was"));
  EXPECT_EQ("active", Must(Req("query", {{"key", "C"}})).fields.at("state"));
  EXPECT_EQ("admitted", responses[4].fields.at("decision"));
  const ServeResponse stats = Must(Req("stats", {}));
  EXPECT_EQ("0", stats.fields.at("queued"));
  EXPECT_EQ("8", stats.fields.at("gpu-demand"));
  ExpectBatchIdentity();

  const std::string path = FreshJournalPath("CancellingQueuedHeadPromotesTheQueue");
  std::uint64_t digest = 0;
  {
    RecoveryInfo recovery;
    Result<std::unique_ptr<ServiceState>> journaled =
        ServiceState::CreateFromJournal(config, JournalOpts(path), &recovery);
    ASSERT_TRUE(journaled.ok()) << journaled.status().ToString();
    for (const ServeRequest& request : requests) {
      ASSERT_TRUE((*journaled)->Handle(request).ok()) << request.verb;
    }
    digest = (*journaled)->StateDigest();
  }
  RecoveryInfo recovery;
  Result<std::unique_ptr<ServiceState>> recovered =
      ServiceState::CreateFromJournal(config, JournalOpts(path), &recovery);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(5u, recovery.replayed_requests);
  EXPECT_EQ(digest, (*recovered)->StateDigest());
  EXPECT_EQ("active", (*recovered)->Handle(Req("query", {{"key", "C"}})).fields.at("state"));
}

// A scan of every job in the table: what the live index must equal.
struct TableScan {
  std::vector<JobId> active;
  std::vector<JobId> queued;
  std::array<std::size_t, 4> counts{};
  int gpu_demand = 0;
};

TableScan ScanTable(const JobTable& table) {
  TableScan scan;
  for (const auto& job : table.jobs()) {
    ++scan.counts[static_cast<std::size_t>(job->state())];
    if (job->state() == ServeJobState::kActive) {
      scan.active.push_back(job->spec.id);
      scan.gpu_demand += job->spec.num_gpus;
    } else if (job->state() == ServeJobState::kQueued) {
      scan.queued.push_back(job->spec.id);
    }
  }
  return scan;
}

void ExpectIndexMatchesScan(const ServiceState& service, const std::string& where) {
  const JobTable& table = service.jobs();
  const TableScan scan = ScanTable(table);
  EXPECT_EQ(scan.active, table.active()) << where;
  EXPECT_EQ(scan.queued, std::vector<JobId>(table.queued().begin(), table.queued().end()))
      << where;
  for (const ServeJobState state : {ServeJobState::kActive, ServeJobState::kQueued,
                                    ServeJobState::kCompleted, ServeJobState::kCancelled}) {
    EXPECT_EQ(scan.counts[static_cast<std::size_t>(state)], table.CountState(state))
        << where << " " << ServeJobStateName(state);
  }
  EXPECT_EQ(scan.gpu_demand, table.ActiveGpuDemand()) << where;
  std::vector<JobId> snapshot_ids;
  for (const JobView& view : service.MakeSnapshot().jobs) {
    snapshot_ids.push_back(view.spec->id);
  }
  EXPECT_EQ(scan.active, snapshot_ids) << where;
}

// The job table's live index against a full scan after every request of a
// seeded mix under a tight load gate: submits that admit, queue or are
// rejected, promotions, completes, and cancels of active and queued jobs;
// then after checkpoint restore and after journal recovery (from a
// mid-run compaction checkpoint plus the requests behind it).
TEST_F(ServiceJournalTest, JobTableIndexMatchesFullScan) {
  ServiceConfig config = SmallCluster("sjf+silod");
  config.admission.max_gpu_load = 1.5;  // 12 GPUs of active demand.
  config.admission.max_queue = 5;
  JournalOptions options = Opts();
  options.sync = JournalSyncMode::kNone;
  std::uint64_t digest = 0;
  std::string checkpoint;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(config, options, &recovery);
    ASSERT_NE(nullptr, service);
    Rng rng(25);
    std::uint64_t rid = 0;
    int submitted = 0;
    int cancelled_queued = 0;
    for (int step = 1; step <= 240; ++step) {
      const std::string t = std::to_string(step);
      const TableScan scan = ScanTable(service->jobs());
      const double roll = rng.NextDouble();
      ServeRequest request;
      if (roll < 0.5 || (scan.active.empty() && scan.queued.empty())) {
        const std::string key = "j" + std::to_string(submitted++);
        request = SubmitReq(key, step, 1 + static_cast<int>(rng.NextBelow(6)), GB(100));
      } else {
        const bool from_queue = !scan.queued.empty() && (scan.active.empty() || roll >= 0.85);
        const std::vector<JobId>& pool = from_queue ? scan.queued : scan.active;
        const JobId id = pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
        const bool complete = !from_queue && roll < 0.75;
        cancelled_queued += from_queue ? 1 : 0;
        request = Req(complete ? "complete" : "cancel",
                      {{"key", service->jobs().Get(id)->key}, {"t", t}});
      }
      service->Handle(WithRid(request, ++rid));  // A rejected submit is part of the mix.
      ExpectIndexMatchesScan(*service, "after request " + std::to_string(rid));
      if (step == 160) {
        Must(service.get(), Req("checkpoint", {}));
      }
    }
    // End with a non-empty queue (at most one 12-GPU job fits the gate), so
    // restore and recovery rebuild one.
    for (const char* key : {"wide", "wider"}) {
      Must(service.get(), WithRid(SubmitReq(key, 241, 12, GB(100)), ++rid));
      ExpectIndexMatchesScan(*service, std::string("after submit ") + key);
    }
    EXPECT_GT(service->admission().queued(), 20u);
    EXPECT_GT(service->admission().rejected(), 0u);
    EXPECT_GT(cancelled_queued, 5);
    EXPECT_GT(service->jobs().CountState(ServeJobState::kQueued), 0u);
    digest = service->StateDigest();
    checkpoint = service->CheckpointText();
  }

  Result<std::unique_ptr<ServiceState>> restored = ServiceState::Create(config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreFromCheckpoint(checkpoint, nullptr).ok());
  ExpectIndexMatchesScan(**restored, "after checkpoint restore");
  EXPECT_EQ(digest, (*restored)->StateDigest());

  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> recovered = Recover(config, options, &recovery);
  ASSERT_NE(nullptr, recovered);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(82u, recovery.replayed_requests);
  ExpectIndexMatchesScan(*recovered, "after journal recovery");
  EXPECT_EQ(digest, recovered->StateDigest());
}

// The state digest's definition (docs/MODEL.md §12), recomputed from a scan
// of the whole table through public accessors: what StateDigest() keeps
// incrementally must always equal it.
std::uint64_t FullScanJobHash(const ServeJob& job) {
  Fnv1a64 h;
  h.U64(static_cast<std::uint64_t>(job.spec.id));
  h.String(job.key);
  h.String(ServeJobStateName(job.state()));
  h.U64(static_cast<std::uint64_t>(job.spec.num_gpus));
  h.U64(static_cast<std::uint64_t>(job.spec.dataset));
  h.Double(job.spec.ideal_io);
  h.U64(static_cast<std::uint64_t>(job.spec.total_bytes));
  h.U64(static_cast<std::uint64_t>(job.spec.step_data_size));
  h.String(job.spec.model);
  h.Double(job.submit_time);
  h.Double(job.admit_time);
  h.Double(job.first_start_time);
  h.Double(job.finish_time);
  h.U64(static_cast<std::uint64_t>(job.remaining_bytes));
  h.U64(static_cast<std::uint64_t>(job.effective_cache));
  h.U64(job.running ? 1 : 0);
  if (job.gpu_type >= 0) {
    h.U64(static_cast<std::uint64_t>(job.gpu_type) + 1);
  }
  if (!job.spec.tenant.empty()) {
    h.String(job.spec.tenant);
  }
  for (const auto& [type_name, factor] : job.spec.speed_factors) {
    h.String(type_name);
    h.Double(factor);
  }
  std::uint64_t z = h.hash();
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t FullScanStateDigest(const ServiceState& service) {
  Fnv1a64 catalog;
  for (const Dataset& dataset : service.jobs().catalog().all()) {
    catalog.String(dataset.name);
    catalog.U64(static_cast<std::uint64_t>(dataset.size));
    catalog.U64(static_cast<std::uint64_t>(dataset.block_size));
  }
  std::uint64_t jobs = 0;
  for (const auto& job : service.jobs().jobs()) {
    jobs += FullScanJobHash(*job);
  }
  Fnv1a64 h;
  h.String(service.policy_name());
  h.U64(service.manages_remote_io() ? 1 : 0);
  h.Double(service.now());
  h.U64(service.last_rid());
  h.U64(service.admission().admitted());
  h.U64(service.admission().queued());
  h.U64(service.admission().rejected());
  h.Double(service.last_plan_time());
  h.U64(catalog.hash());
  h.U64(service.jobs().size());
  h.U64(jobs);
  return h.hash();
}

// Replaces the value of `key=` in the first line of `text` that contains
// `line_marker`.
std::string ReplaceCheckpointField(std::string text, const std::string& line_marker,
                                   const std::string& key, const std::string& value) {
  const std::size_t line = text.find(line_marker);
  const std::size_t start = text.find(" " + key + "=", line);
  EXPECT_NE(std::string::npos, line);
  EXPECT_NE(std::string::npos, start);
  const std::size_t value_start = start + key.size() + 2;
  const std::size_t value_end = text.find_first_of(" \n", value_start);
  return text.replace(value_start, value_end - value_start, value);
}

// The incremental state digest against the full-scan definition after every
// request of a seeded mix under a tight load gate: submits that admit, queue
// or are rejected (some with a tenant and speed factors), promotions,
// progress reports, completes, cancels of active and queued jobs, forced
// plans and policy reloads; then after checkpoint restore and after journal
// recovery from a mid-run compaction.  Two restores differing only in one
// completed job's finish time must digest differently.
TEST_F(ServiceJournalTest, StateDigestMatchesFullScan) {
  ServiceConfig config = SmallCluster("sjf+silod");
  config.admission.max_gpu_load = 1.5;  // 12 GPUs of active demand.
  config.admission.max_queue = 5;
  JournalOptions options = Opts();
  options.sync = JournalSyncMode::kNone;
  std::uint64_t digest = 0;
  std::string checkpoint;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(config, options, &recovery);
    ASSERT_NE(nullptr, service);
    EXPECT_EQ(FullScanStateDigest(*service), service->StateDigest()) << "fresh service";
    Rng rng(26);
    std::uint64_t rid = 0;
    int submitted = 0;
    std::array<int, 6> kinds{};  // progress, complete, cancel active/queued, plan, reload.
    for (int step = 1; step <= 240; ++step) {
      const std::string t = std::to_string(step);
      const std::vector<JobId>& active = service->jobs().active();
      const std::deque<JobId>& queued = service->jobs().queued();
      const double roll = rng.NextDouble();
      ServeRequest request;
      if (roll < 0.4 || (active.empty() && queued.empty())) {
        const std::string key = "j" + std::to_string(submitted++);
        request = SubmitReq(key, step, 1 + static_cast<int>(rng.NextBelow(6)), GB(100));
        if (submitted % 3 == 0) {
          request.args["tenant"] = "team" + std::to_string(submitted % 2);
          request.args["speeds"] = "v100=1.5,k80=0.5";
        }
      } else if (roll < 0.9 && !active.empty()) {
        const JobId id = active[static_cast<std::size_t>(rng.NextBelow(active.size()))];
        const std::string& key = service->jobs().Get(id)->key;
        if (roll < 0.55) {
          ++kinds[0];
          request = Req("progress", {{"key", key},
                                     {"t", t},
                                     {"remaining", std::to_string(rng.NextBelow(1000) * 1000000)},
                                     {"effective", std::to_string(rng.NextBelow(100) * 1000000)}});
        } else if (roll < 0.75) {
          ++kinds[1];
          request = Req("complete", {{"key", key}, {"t", t}});
        } else {
          ++kinds[2];
          request = Req("cancel", {{"key", key}, {"t", t}});
        }
      } else if (roll < 0.95 && !queued.empty()) {
        ++kinds[3];
        const JobId id = queued[static_cast<std::size_t>(rng.NextBelow(queued.size()))];
        request = Req("cancel", {{"key", service->jobs().Get(id)->key}, {"t", t}});
      } else if (roll < 0.97) {
        ++kinds[4];
        request = Req("plan", {{"t", t}});
      } else {
        ++kinds[5];
        const bool fifo = service->policy_name() == "sjf+silod";
        request = Req("reload-policy", {{"policy", fifo ? "fifo+silod" : "sjf+silod"},
                                        {"manage-remote-io", fifo ? "0" : "1"}});
      }
      service->Handle(WithRid(request, ++rid));  // A rejected submit is part of the mix.
      ASSERT_EQ(FullScanStateDigest(*service), service->StateDigest())
          << "after request " << rid << " (" << request.verb << ")";
      if (step == 160) {
        Must(service.get(), Req("checkpoint", {}));
      }
    }
    for (const int count : kinds) {
      EXPECT_GT(count, 0);
    }
    int promoted = 0;
    for (const auto& job : service->jobs().jobs()) {
      promoted += job->admit_time > job->submit_time ? 1 : 0;
    }
    EXPECT_GT(promoted, 0);
    EXPECT_GT(service->admission().queued(), 5u);
    EXPECT_GT(service->admission().rejected(), 0u);
    digest = service->StateDigest();
    checkpoint = service->CheckpointText();
  }

  Result<std::unique_ptr<ServiceState>> restored = ServiceState::Create(config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreFromCheckpoint(checkpoint, nullptr).ok());
  EXPECT_EQ(FullScanStateDigest(**restored), (*restored)->StateDigest());
  EXPECT_EQ(digest, (*restored)->StateDigest());

  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> recovered = Recover(config, options, &recovery);
  ASSERT_NE(nullptr, recovered);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(FullScanStateDigest(*recovered), recovered->StateDigest());
  EXPECT_EQ(digest, recovered->StateDigest());

  // A retired job's fields count: move one completed job's finish time.
  const std::string moved =
      ReplaceCheckpointField(checkpoint, "state=completed", "finish-t", "12345.5");
  ASSERT_NE(checkpoint, moved);
  Result<std::unique_ptr<ServiceState>> other = ServiceState::Create(config);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->RestoreFromCheckpoint(moved, nullptr).ok());
  EXPECT_EQ(FullScanStateDigest(**other), (*other)->StateDigest());
  EXPECT_NE(digest, (*other)->StateDigest());
}

TEST_F(ServiceJournalTest, CheckpointWithoutJournalIsFailedPrecondition) {
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(SmallCluster("fifo+silod"));
  ASSERT_TRUE(service.ok());
  ServeResponse response = (*service)->Handle(Req("checkpoint", {}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, response.code);
}

TEST_F(ServiceJournalTest, AutoCompactionBoundsTheJournal) {
  JournalOptions options = Opts();
  options.max_bytes = 4096;  // Tiny cap: a few dozen submits overflow it.
  std::uint64_t digest = 0;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service =
        Recover(SmallCluster("fifo+silod"), options, &recovery);
    ASSERT_NE(nullptr, service);
    std::uint64_t rid = 0;
    for (int i = 0; i < 40; ++i) {
      const std::string key = "job" + std::to_string(i);
      Must(service.get(), WithRid(SubmitReq(key, i, 1, GB(100)), ++rid));
      Must(service.get(), WithRid(Req("complete", {{"key", key}, {"t", std::to_string(i + 40)}}),
                                  ++rid));
    }
    ASSERT_NE(nullptr, service->journal());
    EXPECT_GT(service->journal()->compactions(), 0u);
    // The file never grows unboundedly: it is at most the cap plus the tail
    // appended since the last checkpoint (itself < cap) plus one checkpoint.
    EXPECT_LT(service->journal()->size_bytes(), 10 * options.max_bytes);
    digest = service->StateDigest();
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), options, &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_TRUE(recovery.from_checkpoint);
  EXPECT_EQ(digest, service->StateDigest());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The planner lines a checkpoint may carry with one event pending: this
// daemon's, and an older one's with the dirty-all/-reason/-jobs/-datasets
// keys.  Between requests this daemon always writes dirty-events=0; an older
// epoch-batching daemon could write 1.
const char* const kPendingPlannerLines[] = {
    "dirty-events=1",
    "dirty-all=0 dirty-reason= dirty-events=1 dirty-jobs=1 dirty-datasets=",
};

// `text` with its planner line's keys after last-plan-t replaced by `keys`.
std::string WithPlannerKeys(std::string text, const std::string& keys) {
  const std::size_t line = text.find("planner last-plan-t=");
  EXPECT_NE(std::string::npos, line) << text;
  const std::size_t from = text.find(' ', line + 8) + 1;
  return text.replace(from, text.find('\n', from) - from, keys);
}

// Feeds `tail` to both services, requiring the same response and state
// digest after each request.  The recovered service starts with one event
// pending, so its first scheduler-visible request re-solves exactly once,
// as the uninterrupted one does, and both count the same solves over the
// tail.
void ExpectSameTail(ServiceState* live, ServiceState* recovered,
                    const std::vector<ServeRequest>& tail) {
  ASSERT_EQ(0u, live->pending_events());
  ASSERT_EQ(1u, recovered->pending_events());
  const std::uint64_t live_solves = live->full_solves();
  const std::uint64_t recovered_solves = recovered->full_solves();
  for (const ServeRequest& request : tail) {
    const ServeResponse a = live->Handle(request);
    const ServeResponse b = recovered->Handle(request);
    EXPECT_TRUE(a.ok()) << request.verb << ": " << a.error;
    EXPECT_EQ(a.fields, b.fields) << request.verb;
    EXPECT_EQ(live->StateDigest(), recovered->StateDigest()) << "after " << request.Encode();
    EXPECT_EQ(live->full_solves() - live_solves, recovered->full_solves() - recovered_solves)
        << "after " << request.Encode();
    EXPECT_EQ(0u, recovered->pending_events()) << "after " << request.Encode();
  }
  EXPECT_EQ(PlanDigest(live->PlanNow()), PlanDigest(recovered->PlanNow()));
  EXPECT_EQ(live->StateDigest(), recovered->StateDigest());
}

// The cluster both recovery tests run: wide-open admission, so the 8-GPU
// job b is admitted and waits in the scheduler beside the running a.
ServiceConfig OpenCluster() {
  ServiceConfig config = SmallCluster("sjf+silod");
  config.admission.max_gpu_load = 1e18;
  return config;
}

// The tail both recovery tests feed: the first request is an event, so it
// takes the restored pending event along in its one solve.
std::vector<ServeRequest> RecoveryTail() {
  return {WithRid(Req("progress", {{"key", "a"},
                                   {"t", "20"},
                                   {"remaining", "500000000000"},
                                   {"effective", "50000000000"}}),
                  3),
          Req("query", {{"key", "b"}}),
          WithRid(Req("plan", {{"t", "25"}}), 4),
          WithRid(SubmitReq("c", 30, 1, GB(200)), 5),
          WithRid(Req("cancel", {{"key", "b"}, {"t", "50"}}), 6),
          WithRid(SubmitReq("d", 2000, 2, GB(300)), 7),
          WithRid(Req("complete", {{"key", "c"}, {"t", "2100"}}), 8)};
}

// A journal whose checkpoint carries a pending event (as an older batching
// daemon could leave one) recovers to the same state as the uninterrupted
// run; the pending event only makes the next event's one solve due.
TEST_F(ServiceJournalTest, PendingEventRecoveryMatchesUninterruptedRun) {
  for (const char* keys : kPendingPlannerLines) {
    SCOPED_TRACE(keys);
    std::remove(path_.c_str());
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> live = Recover(OpenCluster(), Opts(), &recovery);
    ASSERT_NE(nullptr, live);
    Must(live.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(live.get(), WithRid(SubmitReq("b", 10, 8, GB(800)), 2));
    EXPECT_EQ("1", Must(live.get(), Req("plan", {})).fields.at("running"));  // One waits.
    Must(live.get(), Req("checkpoint", {}));

    // The crash copy: the journal as the checkpoint left it, with the
    // pending event written into the planner line.
    const std::string copy = path_ + ".copy";
    std::remove(copy.c_str());
    {
      JournalScan scan;
      std::unique_ptr<Journal> journal = MustOpen(JournalOpts(copy), &scan);
      ASSERT_TRUE(journal->Compact(WithPlannerKeys(live->CheckpointText(), keys)).ok());
    }
    EXPECT_NE(std::string::npos, ReadFile(copy).find(keys));
    std::unique_ptr<ServiceState> recovered =
        Recover(OpenCluster(), JournalOpts(copy), &recovery);
    ASSERT_NE(nullptr, recovered);
    EXPECT_TRUE(recovery.from_checkpoint);
    EXPECT_EQ(0u, recovery.replayed_requests);
    EXPECT_EQ(live->StateDigest(), recovered->StateDigest());
    EXPECT_EQ(0u, recovered->full_solves());  // The restored plan is no solve.

    ExpectSameTail(live.get(), recovered.get(), RecoveryTail());
    std::remove(copy.c_str());
  }
}

// With no events pending at the checkpoint, the first plan read after
// recovery is served from the cache, so the restore must rebuild it.
TEST_F(ServiceJournalTest, RecoveredPlanServedBeforeAnyEvent) {
  std::uint64_t plan_digest = 0;
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
    Must(service.get(), Req("checkpoint", {}));
    ASSERT_EQ(0u, service->pending_events());
    plan_digest = PlanDigest(service->PlanNow());
  }
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("sjf+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_TRUE(recovery.from_checkpoint);
  const ServeResponse plan = Must(service.get(), Req("plan", {}));
  EXPECT_EQ(0u, service->full_solves());  // Served, not re-solved.
  EXPECT_EQ(plan_digest, PlanDigest(service->plan()));
  EXPECT_EQ("2", plan.fields.at("running"));
}

// A checkpoint's planner line with one event pending restores in place
// (last-plan-t and dirty-events read, an older daemon's extra keys
// ignored), and the next event solves once.
TEST_F(ServiceJournalTest, RestoresOlderPlannerLine) {
  for (const char* keys : kPendingPlannerLines) {
    SCOPED_TRACE(keys);
    Result<std::unique_ptr<ServiceState>> live = ServiceState::Create(OpenCluster());
    ASSERT_TRUE(live.ok());
    Must(live->get(), SubmitReq("a", 0, 2, GB(400)));
    Must(live->get(), SubmitReq("b", 10, 8, GB(800)));
    const std::string text = (*live)->CheckpointText();
    ASSERT_NE(std::string::npos, text.find("planner last-plan-t=10 dirty-events=0\n")) << text;

    Result<std::unique_ptr<ServiceState>> restored = ServiceState::Create(OpenCluster());
    ASSERT_TRUE(restored.ok());
    const Status st = (*restored)->RestoreFromCheckpoint(WithPlannerKeys(text, keys), nullptr);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(10.0, (*restored)->last_plan_time());
    EXPECT_EQ((*live)->StateDigest(), (*restored)->StateDigest());
    ExpectSameTail(live->get(), restored->get(), RecoveryTail());
  }
}

TEST_F(ServiceJournalTest, TornTailRecoveryDropsOnlyTheTornFrame) {
  {
    RecoveryInfo recovery;
    std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
    ASSERT_NE(nullptr, service);
    Must(service.get(), WithRid(SubmitReq("a", 0, 2, GB(400)), 1));
    Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
  }
  // Tear mid-way into b's record: the crash happened inside the append.
  ASSERT_EQ(0, ::truncate(path_.c_str(), static_cast<off_t>(FileSize(path_) - 2)));
  RecoveryInfo recovery;
  std::unique_ptr<ServiceState> service = Recover(SmallCluster("fifo+silod"), Opts(), &recovery);
  ASSERT_NE(nullptr, service);
  EXPECT_EQ(1u, recovery.replayed_requests);
  EXPECT_GT(recovery.dropped_bytes, 0u);
  EXPECT_EQ(1u, service->jobs().size());
  // The client's retry of the lost frame applies normally (rid 2 was never
  // durable, so it is NOT a duplicate).
  ServeResponse retry = Must(service.get(), WithRid(SubmitReq("b", 10, 1, GB(800)), 2));
  EXPECT_EQ(0u, retry.fields.count("duplicate"));
  EXPECT_EQ(2u, service->jobs().size());
}

// The acceptance scenario in-process: SIGKILL mid-trace, restart, re-replay
// the whole trace with monotone rids — the final report must match the batch
// flow engine bit-for-bit (the already-applied prefix dedupes).
TEST(ServeReplay, CrashMidTraceRecoveryMatchesBatchEngine) {
  TraceOptions options;
  options.num_jobs = 10;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(20);
  options.seed = 11;
  const Trace trace = TraceGenerator(options).Generate();
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(900);
  config.resources.remote_io = MBps(200);
  Result<std::shared_ptr<Scheduler>> scheduler =
      MakeSchedulerByName("sjf+silod", SchedulerOptions{});
  ASSERT_TRUE(scheduler.ok());
  FlowEngine engine(&trace, *scheduler, config);
  const SimResult result = engine.Run();
  const std::vector<ReplayEvent> schedule = BuildReplaySchedule(trace, result);

  ServiceConfig service_config;
  service_config.policy = "sjf+silod";
  service_config.resources = config.resources;
  service_config.admission.max_gpu_load = 1e18;  // Engines have no gate.
  JournalOptions journal_options;
  journal_options.path = FreshJournalPath("crash_mid_trace");
  journal_options.sync = JournalSyncMode::kBatch;  // write()n data survives SIGKILL.
  journal_options.batch_frames = 4;

  const std::size_t half = schedule.size() / 2;
  {
    RecoveryInfo recovery;
    Result<std::unique_ptr<ServiceState>> service =
        ServiceState::CreateFromJournal(service_config, journal_options, &recovery);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (std::size_t i = 0; i < half; ++i) {
      const ReplayEvent& event = schedule[i];
      const ServeRequest request =
          event.complete ? CompleteRequestFor(trace, event.job, event.t, i + 1)
                         : SubmitRequestFor(trace, event.job, event.t, i + 1);
      const ServeResponse response = (*service)->Handle(request);
      ASSERT_TRUE(response.ok()) << request.verb << ": " << response.error;
    }
    // SIGKILL here: no Sync, no destructor grace.
  }
  RecoveryInfo recovery;
  Result<std::unique_ptr<ServiceState>> service =
      ServiceState::CreateFromJournal(service_config, journal_options, &recovery);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(half, recovery.replayed_requests);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ReplayEvent& event = schedule[i];
    const ServeRequest request =
        event.complete ? CompleteRequestFor(trace, event.job, event.t, i + 1)
                       : SubmitRequestFor(trace, event.job, event.t, i + 1);
    const ServeResponse response = (*service)->Handle(request);
    ASSERT_TRUE(response.ok()) << request.verb << ": " << response.error;
    if (i < half) {
      EXPECT_EQ("1", response.fields.at("duplicate")) << "event " << i;
    }
  }
  const RunReport batch = MakeRunReport("sjf+silod", "flow", result);
  const RunReport serve = (*service)->Report();
  EXPECT_TRUE(JctSummariesIdentical(batch, serve))
      << "batch:\n"
      << batch.ToJson().Format() << "\nserve:\n"
      << serve.ToJson().Format();
  EXPECT_EQ(0, serve.unfinished_jobs);
}

}  // namespace
}  // namespace silod
