// Log-shipped replication, end to end over an in-memory transport: frame
// codec roundtrips, journal tailing (rotation hand-off, gaps, torn tails),
// follower bootstrap from a leader checkpoint, convergence under a write
// storm, stream cuts mid-record, corrupted checkpoint chunks, follower
// kill -9 restarts, and the NOT_LEADER write gate. The consistency oracle
// throughout is Engine::Stamp() equality at equal seq.

#include "service/replication.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"
#include "commands.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/recovery.h"
#include "service/service.h"

namespace ecrint::service {
namespace {

constexpr const char* kUniversityDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } }\n"
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

using commands::Assert;
using commands::Bare;
using commands::Define;
using commands::Op;

// assert sc1.Student <type_code> sc2.Grad
ServiceCommand StudentToGrad(int type_code) {
  return Assert({"sc1", "Student"}, type_code, {"sc2", "Grad"});
}

// --- frame codecs ----------------------------------------------------------

// Strips the varint length prefix and returns the frame body, asserting
// the frame is complete and self-consistent.
std::string_view Body(const std::string& frame) {
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  FrameStatus status = ExtractFrame(frame, &body, &consumed, &error);
  EXPECT_EQ(status, FrameStatus::kComplete) << error;
  EXPECT_EQ(consumed, frame.size());
  return body;
}

TEST(ReplicationFrameTest, SubscribeRoundtrip) {
  ReplSubscribe subscribe;
  subscribe.project = "uni";
  subscribe.have_seq = 41;
  Result<ReplFrame> frame = DecodeReplFrame(Body(EncodeReplSubscribe(subscribe)));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, kFrameReplSubscribe);
  EXPECT_EQ(frame->subscribe.project, "uni");
  EXPECT_EQ(frame->subscribe.have_seq, 41u);
}

TEST(ReplicationFrameTest, HelloChunkRecordRoundtrip) {
  ReplHello hello;
  hello.has_checkpoint = true;
  hello.seq = 7;
  hello.total_bytes = 1u << 20;
  hello.crc = 0xDEADBEEF;
  Result<ReplFrame> frame = DecodeReplFrame(Body(EncodeReplHello(hello)));
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->hello.has_checkpoint);
  EXPECT_EQ(frame->hello.seq, 7u);
  EXPECT_EQ(frame->hello.total_bytes, 1u << 20);
  EXPECT_EQ(frame->hello.crc, 0xDEADBEEFu);

  ReplChunk chunk;
  chunk.offset = 65536;
  chunk.crc = 123;
  chunk.bytes = std::string("\x00\x01raw bytes", 11);
  frame = DecodeReplFrame(Body(EncodeReplChunk(chunk)));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->chunk.offset, 65536u);
  EXPECT_EQ(frame->chunk.bytes, chunk.bytes);

  ReplRecord record;
  record.seq = 99;
  record.crc = 456;
  record.payload = "assert sc1.Student 1 sc2.Grad";
  frame = DecodeReplFrame(Body(EncodeReplRecord(record)));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->record.seq, 99u);
  EXPECT_EQ(frame->record.payload, record.payload);
}

TEST(ReplicationFrameTest, StampRoundtripsNegativeCounters) {
  // Pre-adoption stamps are all -1; zigzag must carry them unchanged.
  ReplStamp stamp;
  stamp.seq = 12;
  stamp.stamp = {-1, -1, -1, -1, -1};
  Result<ReplFrame> frame = DecodeReplFrame(Body(EncodeReplStamp(stamp)));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->stamp.seq, 12u);
  EXPECT_EQ(frame->stamp.stamp, stamp.stamp);

  stamp.stamp = {5, 0, 3, 1024, -1};
  frame = DecodeReplFrame(Body(EncodeReplStamp(stamp)));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->stamp.stamp, stamp.stamp);
}

TEST(ReplicationFrameTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeReplFrame("").ok());
  EXPECT_FALSE(DecodeReplFrame("\x7F").ok());  // unknown type
  // Trailing garbage after a valid frame body.
  std::string frame = EncodeReplError("boom");
  std::string body(Body(frame));
  body += "x";
  EXPECT_FALSE(DecodeReplFrame(body).ok());
  // Truncated mid-field.
  ReplRecord record;
  record.seq = 1;
  record.payload = "payload";
  std::string record_body(Body(EncodeReplRecord(record)));
  EXPECT_FALSE(
      DecodeReplFrame(record_body.substr(0, record_body.size() - 3)).ok());
}

// --- journal tailer --------------------------------------------------------

TEST(JournalTailerTest, DeliversNewRecordsAcrossPolls) {
  common::MemFs fs;
  std::string bytes = EncodeJournalRecord(1, "a") + EncodeJournalRecord(2, "b");
  ASSERT_TRUE(fs.WriteFileAtomic("j", bytes).ok());
  JournalTailer tailer(&fs, "j", 0);

  TailResult tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kRecords);
  ASSERT_EQ(tail.records.size(), 2u);
  EXPECT_EQ(tail.records[1].seq, 2u);
  EXPECT_EQ(tail.pending_bytes, 0u);

  // Nothing new: idle.
  EXPECT_EQ(tailer.Poll().status, TailStatus::kIdle);

  bytes += EncodeJournalRecord(3, "c");
  ASSERT_TRUE(fs.WriteFileAtomic("j", bytes).ok());
  tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kRecords);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records[0].seq, 3u);
  EXPECT_EQ(tailer.last_seq(), 3u);
}

TEST(JournalTailerTest, TornTailReadsAsIdle) {
  common::MemFs fs;
  std::string bytes = EncodeJournalRecord(1, "a") + EncodeJournalRecord(2, "b");
  // Cut the second record in half: a writer mid-append looks exactly like
  // this, so the tailer must deliver record 1 and wait, not error.
  ASSERT_TRUE(
      fs.WriteFileAtomic("j", bytes.substr(0, bytes.size() - 5)).ok());
  JournalTailer tailer(&fs, "j", 0);
  TailResult tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kRecords);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_GT(tail.pending_bytes, 0u);
  EXPECT_EQ(tailer.Poll().status, TailStatus::kIdle);

  // The append completes: the tailer picks up record 2.
  ASSERT_TRUE(fs.WriteFileAtomic("j", bytes).ok());
  tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kRecords);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records[0].seq, 2u);
}

TEST(JournalTailerTest, RotationHandsOffWhenSeqsContinue) {
  common::MemFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("j", EncodeJournalRecord(1, "a") +
                                          EncodeJournalRecord(2, "b")).ok());
  JournalTailer tailer(&fs, "j", 0);
  ASSERT_EQ(tailer.Poll().records.size(), 2u);

  // Checkpoint-triggered rotation: the file is replaced and sequencing
  // continues. The tailer notices the shrink and follows seamlessly.
  ASSERT_TRUE(fs.WriteFileAtomic("j", EncodeJournalRecord(3, "c")).ok());
  TailResult tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kRecords);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records[0].seq, 3u);
}

TEST(JournalTailerTest, RotationPastTheTailerIsAGap) {
  common::MemFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("j", EncodeJournalRecord(1, "a")).ok());
  JournalTailer tailer(&fs, "j", 0);
  ASSERT_EQ(tailer.Poll().records.size(), 1u);

  // Records 2..4 were checkpointed away before the tailer saw them.
  ASSERT_TRUE(fs.WriteFileAtomic("j", EncodeJournalRecord(5, "e")).ok());
  TailResult tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kGap);

  // Restart at the gap (as the replication server does after shipping a
  // checkpoint covering it).
  tailer.Restart(4);
  tail = tailer.Poll();
  EXPECT_EQ(tail.status, TailStatus::kRecords);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records[0].seq, 5u);
}

TEST(JournalTailerTest, MissingFileIsIdle) {
  common::MemFs fs;
  JournalTailer tailer(&fs, "nope", 0);
  EXPECT_EQ(tailer.Poll().status, TailStatus::kIdle);
}

// --- leader/follower integration over an in-memory transport ---------------

// Thread-safe frame queue standing in for the follower's socket. Tests can
// make it fail after N sends (a cut stream) or corrupt a frame in flight.
class QueueSink : public ReplicationSink {
 public:
  Status Send(std::string_view frame) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fail_after_ >= 0 && sent_ >= fail_after_) {
      return InternalError("sink closed");
    }
    std::string bytes(frame);
    if (corrupt_index_ == sent_ && !bytes.empty()) {
      bytes.back() = static_cast<char>(bytes.back() ^ 0x5A);
    }
    ++sent_;
    frames_.push_back(std::move(bytes));
    ready_.notify_all();
    return Status::Ok();
  }

  bool Pop(std::string* frame, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!ready_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                         [this] { return !frames_.empty(); })) {
      return false;
    }
    *frame = std::move(frames_.front());
    frames_.pop_front();
    return true;
  }

  void FailAfter(int sends) {
    std::lock_guard<std::mutex> lock(mutex_);
    fail_after_ = sends;
  }
  void CorruptSend(int index) {
    std::lock_guard<std::mutex> lock(mutex_);
    corrupt_index_ = index;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> frames_;
  int sent_ = 0;
  int fail_after_ = -1;    // -1 = never fail
  int corrupt_index_ = -1;  // -1 = never corrupt
};

// One leader subscription running on its own thread, like a connection
// thread in ecrint_serve.
class Subscription {
 public:
  // `configure` runs against the sink BEFORE the server starts streaming,
  // so fault injection cannot race the first frames.
  Subscription(ReplicationServer* server, const std::string& project,
               uint64_t have_seq,
               const std::function<void(QueueSink&)>& configure = nullptr) {
    if (configure) configure(sink_);
    ReplSubscribe subscribe;
    subscribe.project = project;
    subscribe.have_seq = have_seq;
    thread_ = std::thread([this, server, subscribe] {
      status_ = server->Serve(subscribe, sink_,
                              [this] { return stop_.load(); });
    });
  }
  ~Subscription() {
    stop_.store(true);
    thread_.join();
  }

  QueueSink& sink() { return sink_; }

 private:
  QueueSink sink_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Status status_;
};

engine::EngineStamp StampOf(IntegrationService& service,
                            const std::string& project) {
  Result<IntegrationService::ReplicationPosition> position =
      service.SampleReplicationPosition(project);
  EXPECT_TRUE(position.ok()) << position.status().ToString();
  return position.ok() ? position->stamp : engine::EngineStamp{};
}

uint64_t SeqOf(IntegrationService& service, const std::string& project) {
  Result<IntegrationService::ReplicationPosition> position =
      service.SampleReplicationPosition(project);
  EXPECT_TRUE(position.ok()) << position.status().ToString();
  return position.ok() ? position->seq : 0;
}

// Pumps frames from the sink into the follower until it holds the same
// seq AND stamp as the leader (true) or the deadline passes (false). An
// error or kResubscribe outcome ends the pump early (false).
bool PumpUntilConverged(QueueSink& sink, FollowerState& follower,
                        IntegrationService& leader,
                        IntegrationService& follower_service,
                        const std::string& project, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (SeqOf(leader, project) == follower.applied_seq() &&
        StampOf(leader, project) == StampOf(follower_service, project)) {
      return true;
    }
    std::string frame;
    if (!sink.Pop(&frame, 50)) continue;
    Result<FollowerState::Outcome> outcome = follower.HandleFrame(Body(frame));
    if (!outcome.ok() || *outcome != FollowerState::Outcome::kOk) return false;
  }
  return false;
}

struct Node {
  explicit Node(common::Fs* fs, std::string data_dir = "",
                std::string leader_addr = "") {
    ServiceConfig config;
    config.fs = fs;
    config.data_dir = std::move(data_dir);
    config.durability.fsync = FsyncPolicy::kNever;
    config.leader_addr = std::move(leader_addr);
    service = std::make_unique<IntegrationService>(config);
  }
  std::unique_ptr<IntegrationService> service;
};

TEST(ReplicationTest, FollowerBootstrapsFromCheckpointAndConverges) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());
  ASSERT_TRUE(leader.service->Execute(session, Bare(Op::kIntegrate)).ok());
  // Checkpoint + rotate: the journal no longer holds records 1..2, so a
  // fresh follower MUST bootstrap via the checkpoint path.
  ASSERT_EQ(leader.service->CheckpointProjects(), 1);
  ASSERT_TRUE(
      leader.service->Execute(session, StudentToGrad(1)).ok());

  ReplicationServer server(leader.service.get(), &fs, "/lead");
  Node follower(&fs, "", "127.0.0.1:1");
  FollowerState state(follower.service.get(), "uni");
  Result<uint64_t> have = state.Prepare();
  ASSERT_TRUE(have.ok());
  EXPECT_EQ(*have, 0u);

  Subscription subscription(&server, "uni", *have);
  EXPECT_TRUE(PumpUntilConverged(subscription.sink(), state, *leader.service,
                                 *follower.service, "uni"));
  EXPECT_EQ(StampOf(*leader.service, "uni"), StampOf(*follower.service, "uni"));

  // The follower actually serves the replicated state.
  std::string follower_session = follower.service->OpenSession("uni");
  ServiceResponse exported =
      follower.service->Execute(follower_session, Bare(Op::kExport));
  ASSERT_TRUE(exported.ok());
  ServiceResponse leader_export =
      leader.service->Execute(session, Bare(Op::kExport));
  ASSERT_TRUE(leader_export.ok());
  EXPECT_EQ(exported.lines, leader_export.lines);
}

TEST(ReplicationTest, ThousandWritesConvergeStampIdentical) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());

  ReplicationServer::Options fast;
  fast.poll_interval_ms = 1;
  ReplicationServer server(leader.service.get(), &fs, "/lead", fast);
  Node follower(&fs);
  FollowerState state(follower.service.get(), "uni");
  ASSERT_TRUE(state.Prepare().ok());
  Subscription subscription(&server, "uni", 0);

  // A write storm racing the stream: every record must replay to the same
  // engine state, including the ones the engine rejects (duplicate
  // assertions).
  for (int i = 0; i < 1000; ++i) {
    leader.service->Execute(session, StudentToGrad(i % 6));
  }
  ASSERT_TRUE(leader.service->Execute(session, Bare(Op::kIntegrate)).ok());

  EXPECT_TRUE(PumpUntilConverged(subscription.sink(), state, *leader.service,
                                 *follower.service, "uni", 30000));
  EXPECT_GE(state.applied_seq(), 1001u);
  EXPECT_EQ(StampOf(*leader.service, "uni"), StampOf(*follower.service, "uni"));
}

TEST(ReplicationTest, StreamCutMidStreamResubscribesFromAppliedSeq) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());
  for (int i = 0; i < 20; ++i) {
    leader.service->Execute(session, StudentToGrad(i % 6));
  }

  ReplicationServer server(leader.service.get(), &fs, "/lead");
  Node follower(&fs);
  FollowerState state(follower.service.get(), "uni");
  ASSERT_TRUE(state.Prepare().ok());

  uint64_t cut_seq = 0;
  {
    // The connection dies mid-stream (after 5 frames).
    Subscription first(&server, "uni", 0,
                       [](QueueSink& sink) { sink.FailAfter(5); });
    std::string frame;
    while (first.sink().Pop(&frame, 500)) {
      Result<FollowerState::Outcome> outcome = state.HandleFrame(Body(frame));
      ASSERT_TRUE(outcome.ok());
      ASSERT_EQ(*outcome, FollowerState::Outcome::kOk);
    }
    cut_seq = state.applied_seq();
    EXPECT_GT(cut_seq, 0u);
    EXPECT_LT(cut_seq, SeqOf(*leader.service, "uni"));
  }

  // Reconnect with have_seq = what stuck; the leader resumes exactly there
  // — no re-send of applied records, no gaps.
  Subscription second(&server, "uni", cut_seq);
  EXPECT_TRUE(PumpUntilConverged(second.sink(), state, *leader.service,
                                 *follower.service, "uni"));
  EXPECT_EQ(StampOf(*leader.service, "uni"), StampOf(*follower.service, "uni"));
}

TEST(ReplicationTest, CorruptedChunkForcesCleanRetry) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());
  ASSERT_TRUE(leader.service->Execute(session, Bare(Op::kIntegrate)).ok());
  ASSERT_EQ(leader.service->CheckpointProjects(), 1);

  ReplicationServer server(leader.service.get(), &fs, "/lead");
  Node follower(&fs);
  FollowerState state(follower.service.get(), "uni");
  ASSERT_TRUE(state.Prepare().ok());

  {
    // Bit-flip the first chunk (send #1, after the hello) in flight: the
    // follower must reject the transfer, not install garbage.
    Subscription corrupted(&server, "uni", 0,
                           [](QueueSink& sink) { sink.CorruptSend(1); });
    bool rejected = false;
    std::string frame;
    while (!rejected && corrupted.sink().Pop(&frame, 500)) {
      Result<FollowerState::Outcome> outcome = state.HandleFrame(Body(frame));
      ASSERT_TRUE(outcome.ok());
      rejected = *outcome == FollowerState::Outcome::kResubscribe;
    }
    EXPECT_TRUE(rejected);
    EXPECT_EQ(state.applied_seq(), 0u);
  }

  Subscription clean(&server, "uni", 0);
  EXPECT_TRUE(PumpUntilConverged(clean.sink(), state, *leader.service,
                                 *follower.service, "uni"));
  EXPECT_EQ(StampOf(*leader.service, "uni"), StampOf(*follower.service, "uni"));
}

TEST(ReplicationTest, DurableFollowerSurvivesKillDashNine) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());
  for (int i = 0; i < 10; ++i) {
    leader.service->Execute(session, StudentToGrad(i % 6));
  }

  ReplicationServer server(leader.service.get(), &fs, "/lead");
  uint64_t surviving_seq = 0;
  {
    // First life: durable follower converges, then "kill -9" — the whole
    // process state vanishes, only its journal + checkpoint remain in fs.
    Node follower(&fs, "/replica");
    FollowerState state(follower.service.get(), "uni");
    ASSERT_TRUE(state.Prepare().ok());
    Subscription subscription(&server, "uni", 0);
    ASSERT_TRUE(PumpUntilConverged(subscription.sink(), state,
                                   *leader.service, *follower.service, "uni"));
    surviving_seq = state.applied_seq();
  }

  // More leader writes while the follower is down.
  for (int i = 0; i < 10; ++i) {
    leader.service->Execute(
        session, Assert({"sc2", "Grad"}, i % 6, {"sc1", "Student"}));
  }

  // Second life: recovery picks the stream back up from local durability —
  // no full re-bootstrap.
  Node follower(&fs, "/replica");
  FollowerState state(follower.service.get(), "uni");
  Result<uint64_t> have = state.Prepare();
  ASSERT_TRUE(have.ok());
  EXPECT_EQ(*have, surviving_seq);
  Subscription subscription(&server, "uni", *have);
  EXPECT_TRUE(PumpUntilConverged(subscription.sink(), state, *leader.service,
                                 *follower.service, "uni"));
  EXPECT_EQ(StampOf(*leader.service, "uni"), StampOf(*follower.service, "uni"));
}

TEST(ReplicationTest, FollowerRejectsWritesWithNotLeader) {
  common::MemFs fs;
  Node follower(&fs, "", "10.0.0.7:7400");
  std::string session = follower.service->OpenSession("uni");
  ServiceResponse response =
      follower.service->Execute(session, Define(kUniversityDdl));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kNotLeader);
  EXPECT_EQ(response.error->leader, "10.0.0.7:7400");
  // Reads still work.
  EXPECT_TRUE(follower.service->Execute(session, Bare(Op::kExport)).ok());
}

TEST(ReplicationTest, ApplyReplicatedEnforcesSeqContiguity) {
  common::MemFs fs;
  Node follower(&fs);
  follower.service->EnsureProject("uni");
  std::string payload = "define schema s { entity E { A: char key; } }";
  EXPECT_FALSE(follower.service->ApplyReplicated("uni", 2, payload).ok());
  ASSERT_TRUE(follower.service->ApplyReplicated("uni", 1, payload).ok());
  EXPECT_FALSE(follower.service->ApplyReplicated("uni", 1, payload).ok());
  EXPECT_TRUE(follower.service->ApplyReplicated("uni", 2, payload).ok());
}

// --- epoch-fenced failover -------------------------------------------------

TEST(ReplicationFailoverTest, PromoteClearsNotLeaderAndBumpsEpoch) {
  common::MemFs fs;
  Node node(&fs, "/n1", "10.0.0.7:7400");
  std::string session = node.service->OpenSession("uni");
  ServiceResponse refused =
      node.service->Execute(session, Define(kUniversityDdl));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kNotLeader);

  Result<uint64_t> epoch = node.service->PromoteProject("uni");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
  EXPECT_TRUE(node.service->CurrentLeaderAddr().empty());
  EXPECT_EQ(node.service->ProjectEpoch("uni"), 1u);
  // The write gate lifted at the new epoch.
  EXPECT_TRUE(node.service->Execute(session, Define(kUniversityDdl)).ok());

  Result<IntegrationService::ReplicationPosition> position =
      node.service->SampleReplicationPosition("uni");
  ASSERT_TRUE(position.ok());
  EXPECT_EQ(position->epoch, 1u);
}

TEST(ReplicationFailoverTest, PromotedEpochSurvivesRestart) {
  common::MemFs fs;
  {
    Node node(&fs, "/n1", "10.0.0.7:7400");
    Result<uint64_t> epoch = node.service->PromoteProject("uni");
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(*epoch, 1u);
  }
  // "kill -9": only the checkpoint + journal survive. The fence must come
  // back with them — a restarted promoted leader at epoch 0 could be
  // re-deposed by its own past.
  Node revived(&fs, "/n1");
  revived.service->EnsureProject("uni");
  EXPECT_EQ(revived.service->ProjectEpoch("uni"), 1u);
}

TEST(ReplicationFailoverTest, DemoteRejectsStaleEpochsAndRepoints) {
  common::MemFs fs;
  Node node(&fs, "/n1");  // standalone: leads by default
  node.service->EnsureProject("uni");

  // Same-epoch demotion of a leader is stale (a real takeover always bumps).
  EXPECT_FALSE(
      node.service->DemoteProject("uni", 0, "10.0.0.9:7400").ok());
  EXPECT_EQ(node.service->metrics().GetCounter("repl.stale_epoch_rejects")->value(), 1);

  ASSERT_TRUE(node.service->DemoteProject("uni", 2, "10.0.0.9:7400").ok());
  EXPECT_EQ(node.service->CurrentLeaderAddr(), "10.0.0.9:7400");
  EXPECT_EQ(node.service->ProjectEpoch("uni"), 2u);
  std::string session = node.service->OpenSession("uni");
  ServiceResponse refused =
      node.service->Execute(session, Define(kUniversityDdl));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kNotLeader);
  EXPECT_EQ(refused.error->leader, "10.0.0.9:7400");

  // Re-pointing a follower at the SAME epoch is legal (address learned out
  // of band); an older epoch never is.
  EXPECT_TRUE(node.service->DemoteProject("uni", 2, "10.0.0.10:7400").ok());
  EXPECT_EQ(node.service->CurrentLeaderAddr(), "10.0.0.10:7400");
  EXPECT_FALSE(node.service->DemoteProject("uni", 1, "10.0.0.9:7400").ok());
}

TEST(ReplicationFailoverTest, FollowerRejectsStreamFromStaleEpoch) {
  common::MemFs fs;
  Node follower(&fs);
  FollowerState state(follower.service.get(), "uni");
  ASSERT_TRUE(state.Prepare().ok());

  ReplHello hello;
  hello.has_checkpoint = false;
  hello.seq = 0;
  hello.epoch = 2;
  Result<FollowerState::Outcome> outcome =
      state.HandleFrame(Body(EncodeReplHello(hello)));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, FollowerState::Outcome::kOk);
  EXPECT_EQ(state.epoch(), 2u);
  // The adoption reached the service (and would persist with the next
  // checkpoint).
  EXPECT_EQ(follower.service->ProjectEpoch("uni"), 2u);

  // A deposed leader reconnecting at epoch 1: refuse the stream.
  hello.epoch = 1;
  outcome = state.HandleFrame(Body(EncodeReplHello(hello)));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, FollowerState::Outcome::kResubscribe);
  EXPECT_EQ(follower.service->metrics().GetCounter("repl.stale_epoch_rejects")->value(), 1);

  // Same for a stale mid-stream stamp.
  ReplStamp stamp;
  stamp.seq = 0;
  stamp.epoch = 1;
  outcome = state.HandleFrame(Body(EncodeReplStamp(stamp)));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, FollowerState::Outcome::kResubscribe);
}

TEST(ReplicationFailoverTest, HigherEpochSubscribeDeposesLeader) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());

  ReplicationServer server(leader.service.get(), &fs, "/lead");
  ReplSubscribe subscribe;
  subscribe.project = "uni";
  subscribe.have_seq = 0;
  subscribe.epoch = 5;
  subscribe.leader_hint = "10.0.0.9:7400";
  QueueSink sink;
  Status served = server.Serve(subscribe, sink, [] { return false; });
  EXPECT_FALSE(served.ok());

  // The subscriber got a refusal frame, and this node fenced itself toward
  // the hinted leader instead of split-brain-serving a stale stream.
  std::string frame;
  ASSERT_TRUE(sink.Pop(&frame, 1000));
  Result<ReplFrame> decoded = DecodeReplFrame(Body(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, kFrameReplError);
  EXPECT_EQ(leader.service->CurrentLeaderAddr(), "10.0.0.9:7400");
  EXPECT_EQ(leader.service->ProjectEpoch("uni"), 5u);
  ServiceResponse refused =
      leader.service->Execute(session, StudentToGrad(1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kNotLeader);
  EXPECT_EQ(refused.error->leader, "10.0.0.9:7400");
}

TEST(ReplicationFailoverTest, ServeRefusesWhileNotLeader) {
  common::MemFs fs;
  Node node(&fs, "/n1", "10.0.0.7:7400");
  ReplicationServer server(node.service.get(), &fs, "/n1");
  ReplSubscribe subscribe;
  subscribe.project = "uni";
  QueueSink sink;
  Status served = server.Serve(subscribe, sink, [] { return false; });
  EXPECT_FALSE(served.ok());
  std::string frame;
  ASSERT_TRUE(sink.Pop(&frame, 1000));
  Result<ReplFrame> decoded = DecodeReplFrame(Body(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, kFrameReplError);
}

TEST(ReplicationFailoverTest, PromotedFollowerServesStreamAtBumpedEpoch) {
  common::MemFs fs;
  Node node(&fs, "/n1", "10.0.0.7:7400");
  ASSERT_TRUE(node.service->PromoteProject("uni").ok());
  std::string session = node.service->OpenSession("uni");
  ASSERT_TRUE(node.service->Execute(session, Define(kUniversityDdl)).ok());
  ASSERT_TRUE(node.service
                  ->Execute(session, StudentToGrad(1))
                  .ok());

  // A fresh replica following the promoted node converges AND adopts the
  // bumped epoch from the stream.
  ReplicationServer server(node.service.get(), &fs, "/n1");
  Node follower(&fs);
  FollowerState state(follower.service.get(), "uni");
  ASSERT_TRUE(state.Prepare().ok());
  Subscription subscription(&server, "uni", 0);
  EXPECT_TRUE(PumpUntilConverged(subscription.sink(), state, *node.service,
                                 *follower.service, "uni"));
  EXPECT_EQ(StampOf(*node.service, "uni"), StampOf(*follower.service, "uni"));
  EXPECT_EQ(state.epoch(), 1u);
  EXPECT_EQ(follower.service->ProjectEpoch("uni"), 1u);
}

// --- fencing without a usable leader address -------------------------------

TEST(ReplicationFailoverTest, EmptyDemoteHintFencesInsteadOfSelfAdopting) {
  common::MemFs fs;
  Node node(&fs, "/n1");  // standalone: leads by default
  node.service->EnsureProject("uni");
  std::string session = node.service->OpenSession("uni");
  ASSERT_TRUE(node.service->Execute(session, Define(kUniversityDdl)).ok());

  // Deposed at a higher epoch with no forwarding address. The old
  // representation (leader_addr empty == leads) would leave this node
  // writable at the same epoch as the real new leader — split-brain.
  ASSERT_TRUE(node.service->DemoteProject("uni", 3, "").ok());
  EXPECT_FALSE(node.service->LeadsWrites());
  EXPECT_TRUE(node.service->CurrentLeaderAddr().empty());
  EXPECT_EQ(node.service->ProjectEpoch("uni"), 3u);

  ServiceResponse refused =
      node.service->Execute(session, StudentToGrad(1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kNotLeader);
  EXPECT_TRUE(refused.error->leader.empty());

  // A later demote with a real address ends the fence as a follower...
  ASSERT_TRUE(node.service->DemoteProject("uni", 3, "10.0.0.9:7400").ok());
  EXPECT_EQ(node.service->CurrentLeaderAddr(), "10.0.0.9:7400");
  EXPECT_FALSE(node.service->LeadsWrites());
  // ...and a promote ends it as the leader.
  Result<uint64_t> epoch = node.service->PromoteProject("uni");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 4u);
  EXPECT_TRUE(node.service->LeadsWrites());
  EXPECT_TRUE(node.service
                  ->Execute(session, StudentToGrad(1))
                  .ok());
}

TEST(ReplicationFailoverTest, SelfPointingDemoteHintFences) {
  common::MemFs fs;
  ServiceConfig config;
  config.fs = &fs;
  config.data_dir = "/n1";
  config.durability.fsync = FsyncPolicy::kNever;
  config.advertised_addr = "10.0.0.7:7400";
  IntegrationService service(config);
  service.EnsureProject("uni");

  // A hint pointing back at this node (a confused client echoing the
  // address it dialed) must not be adopted: following yourself is a
  // redirect loop. Fence instead.
  ASSERT_TRUE(service.DemoteProject("uni", 2, "10.0.0.7:7400").ok());
  EXPECT_FALSE(service.LeadsWrites());
  EXPECT_TRUE(service.CurrentLeaderAddr().empty());
  EXPECT_EQ(service.ProjectEpoch("uni"), 2u);

  std::string session = service.OpenSession("uni");
  ServiceResponse refused = service.Execute(session, Define(kUniversityDdl));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kNotLeader);
  EXPECT_TRUE(refused.error->leader.empty());
}

TEST(ReplicationFailoverTest, HigherEpochSubscribeWithEmptyHintFences) {
  common::MemFs fs;
  Node leader(&fs, "/lead");
  std::string session = leader.service->OpenSession("uni");
  ASSERT_TRUE(leader.service->Execute(session, Define(kUniversityDdl)).ok());

  ReplicationServer server(leader.service.get(), &fs, "/lead");
  ReplSubscribe subscribe;
  subscribe.project = "uni";
  subscribe.have_seq = 0;
  subscribe.epoch = 5;
  subscribe.leader_hint = "";  // subscriber never learned an address
  QueueSink sink;
  Status served = server.Serve(subscribe, sink, [] { return false; });
  EXPECT_FALSE(served.ok());

  // Deposed without a forwarding address: fenced, not still leading.
  EXPECT_FALSE(leader.service->LeadsWrites());
  EXPECT_TRUE(leader.service->CurrentLeaderAddr().empty());
  EXPECT_EQ(leader.service->ProjectEpoch("uni"), 5u);
  ServiceResponse refused =
      leader.service->Execute(session, StudentToGrad(1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kNotLeader);
  EXPECT_TRUE(refused.error->leader.empty());
}

TEST(ReplicationFailoverTest, SubscribeHintNamesEpochSourceNotDialedAddr) {
  common::MemFs fs;
  Node follower(&fs, "", "10.0.0.7:7400");  // still dialing the old leader
  FollowerState state(follower.service.get(), "uni");
  ASSERT_TRUE(state.Prepare().ok());
  // Before any epoch is learned the hint is the configured leader address.
  EXPECT_EQ(state.epoch_source(), "10.0.0.7:7400");

  // A stream from a different peer announces a new epoch: the hint must
  // repoint at the peer that ANNOUNCED it — echoing the dialed address
  // back at a deposed leader would redirect it to itself.
  state.set_peer_addr("10.0.0.8:7400");
  ReplHello hello;
  hello.has_checkpoint = false;
  hello.seq = 0;
  hello.epoch = 3;
  Result<FollowerState::Outcome> outcome =
      state.HandleFrame(Body(EncodeReplHello(hello)));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, FollowerState::Outcome::kOk);
  EXPECT_EQ(state.epoch(), 3u);
  EXPECT_EQ(state.epoch_source(), "10.0.0.8:7400");
}

// --- rolling stall deadline (socket level) ---------------------------------

namespace blackhole {

void SetRecvTimeoutMs(int fd, int ms) {
  struct timeval timeout;
  timeout.tv_sec = ms / 1000;
  timeout.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// A fake leader that completes the `proto 2` handshake, answers the
// subscribe with one applicable hello frame, then goes silent with the
// connection held open — the half-open / blackholed-mid-stream shape. A
// stall deadline that only covers the pre-progress window never abandons
// this connection.
class BlackholeLeader {
 public:
  BlackholeLeader() {
    listener_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    bind(listener_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    listen(listener_, 16);
    socklen_t len = sizeof(addr);
    getsockname(listener_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    SetRecvTimeoutMs(listener_, 50);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~BlackholeLeader() {
    stop_.store(true);
    accept_thread_.join();
    for (int fd : held_) close(fd);
    close(listener_);
  }

  std::string addr() const { return "127.0.0.1:" + std::to_string(port_); }
  int accepts() const { return accepts_.load(); }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      int fd = accept(listener_, nullptr, nullptr);
      if (fd < 0) continue;
      accepts_.fetch_add(1);
      SetRecvTimeoutMs(fd, 50);
      // Text negotiation: read the `proto 2` line, acknowledge it.
      if (!ReadSome(fd, "\n")) {
        close(fd);
        continue;
      }
      if (!SendAll(fd, "ok\nproto 2\n.\n")) {
        close(fd);
        continue;
      }
      // The subscribe frame (contents irrelevant here), then one hello the
      // follower applies — progress — and from then on: nothing, forever.
      if (!ReadSome(fd, "")) {
        close(fd);
        continue;
      }
      ReplHello hello;
      hello.has_checkpoint = false;
      hello.seq = 0;  // echoes the fresh follower's have_seq
      if (!SendAll(fd, EncodeReplHello(hello))) {
        close(fd);
        continue;
      }
      held_.push_back(fd);
    }
  }

  // Reads until `marker` appears (or any bytes at all when empty); false
  // on peer close or stop.
  bool ReadSome(int fd, const std::string& marker) {
    std::string got;
    char buf[512];
    while (!stop_.load()) {
      if (!got.empty() &&
          (marker.empty() || got.find(marker) != std::string::npos)) {
        return true;
      }
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        got.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      return false;
    }
    return false;
  }

  int listener_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> accepts_{0};
  std::thread accept_thread_;
  std::vector<int> held_;
};

}  // namespace blackhole

TEST(ReplicationClientTest, BlackholedStreamAfterProgressReconnects) {
  common::MemFs fs;
  blackhole::BlackholeLeader leader;
  Node follower(&fs, "", leader.addr());

  ReplicationClient::Options options;
  options.stall_timeout_ms = 250;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 40;
  ReplicationClient client(follower.service.get(), leader.addr(), "uni",
                           options);
  std::atomic<bool> stop{false};
  std::thread runner([&] { client.Run(stop); });

  // Every connection applies one frame before the blackhole, so only a
  // ROLLING stall deadline — reset by progress, still enforced after it —
  // gets the client off the dead stream and into a reconnect (where a new
  // leader address would be picked up). Pre-fix this spins forever on the
  // first connection and the counter never moves.
  Counter* reconnects =
      follower.service->metrics().GetCounter("repl.reconnects");
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (reconnects->value() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  runner.join();
  EXPECT_GE(reconnects->value(), 2);
  EXPECT_GE(leader.accepts(), 2);
}

}  // namespace
}  // namespace ecrint::service
