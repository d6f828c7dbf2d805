#ifndef ECRINT_SERVICE_RESPONSE_CACHE_H_
#define ECRINT_SERVICE_RESPONSE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/metrics.h"
#include "service/protocol.h"
#include "service/response.h"
#include "service/snapshot.h"

namespace ecrint::service {

// A project's reply memo: read-verb responses (rank / suggest / outline /
// translate), keyed by the parsed command and validated against the
// snapshot the reply would be computed from. The service keeps one per
// project. Entries remember which snapshot PARTS their verb read — as
// weak_ptrs to the part objects — and a lookup hits only when the
// candidate snapshot still carries those exact objects. Copy-on-write
// publication makes this both precise and safe:
//
//  - a republish that did not touch the verb's parts (e.g. an assert run
//    that deduplicated to nothing) reuses the part pointers, so the memo
//    stays warm across publishes that cannot change the answer;
//  - a write that did touch a part allocates a fresh object, so every
//    dependent entry mismatches and is evicted on its next lookup;
//  - the comparison is ABA-safe: weak_ptr::lock can only resurrect the
//    original object, never a new allocation at a recycled address.
//
// The wire frame is built per protocol version on first use (text framing
// and binary framing differ), so a single-request hit costs one copy of
// the frame and no formatting work.
class ResponseCache {
 public:
  // Bound on resident entries; insertion past the cap evicts the least
  // recently used entry, so a scan of one-off requests (a crawler walking
  // distinct rank queries, say) cannot flush the hot working set the way a
  // clear-on-overflow policy would.
  static constexpr size_t kMaxEntries = 256;

  // Builds the canonical key for a request. Each arg is length-prefixed
  // so distinct arg vectors can never collide.
  static std::string Key(std::string_view verb,
                         const std::vector<std::string>& args);

  // A hit when the entry's recorded parts are exactly the parts of
  // `snapshot`; a present-but-stale entry is erased. With `wire`, a hit
  // fills it with the reply framed for `protocol_version` (EncodeReply,
  // built once per entry) and returns an empty response: no line is
  // copied. Without, a hit returns a copy of the response, for a caller
  // that frames it itself (a batch item).
  std::optional<ServiceResponse> Lookup(
      const std::string& key, const EngineSnapshot& snapshot,
      std::string* wire = nullptr,
      int protocol_version = kProtocolTextVersion);

  // Records a response computed from `snapshot`. Callers should only
  // insert ok() responses: admission errors (OVERLOADED, TIMEOUT) are
  // transient and session errors name one session, so neither may be
  // replayed to another request.
  void Insert(const std::string& key, const EngineSnapshot& snapshot,
              const ServiceResponse& response);

  // Entry count (test hook).
  size_t size() const;

  // Counts capacity evictions (stale-entry erasure is not an eviction).
  // Null disables counting; the service wires "cache.evictions" here.
  void SetEvictionCounter(Counter* evictions);

 private:
  struct Entry {
    std::weak_ptr<const ecr::Catalog> catalog;
    std::weak_ptr<const core::EquivalenceMap> equivalence;
    std::weak_ptr<const core::IntegrationResult> integration;
    // Distinguishes "part was null" from "weak_ptr expired".
    bool had_equivalence = false;
    bool had_integration = false;
    ServiceResponse response;
    std::string wire_text;    // built on first text lookup
    std::string wire_binary;  // built on first binary lookup
    // Position in lru_ (most recent at the front).
    std::list<std::string>::iterator lru_position;
  };

  bool Valid(const Entry& entry, const EngineSnapshot& snapshot) const;
  // Moves the entry to the front of the recency list. Callers hold mutex_.
  void Touch(Entry& entry);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  // Keys ordered by recency of use; back() is the eviction victim.
  std::list<std::string> lru_;
  Counter* evictions_ = nullptr;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_RESPONSE_CACHE_H_
