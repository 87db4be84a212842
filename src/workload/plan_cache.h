#ifndef XPTC_WORKLOAD_PLAN_CACHE_H_
#define XPTC_WORKLOAD_PLAN_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/alphabet.h"
#include "common/result.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "xpath/engine.h"

namespace xptc {

/// Thread-safe LRU cache of parsed, simplified query plans and their
/// compiled programs.
///
/// A serving workload re-parses the same query texts endlessly; a cache hit
/// turns `Query::Parse` (lexing, parsing and the one-pass hash-consing
/// simplifier) into one hash lookup. Entries are keyed on (alphabet
/// identity, normalised text) — normalisation is surrounding-whitespace
/// stripping, so `" <child[a]> "` and `"<child[a]>"` share a plan. The
/// stored `Query` is immutable and handed out by shared_ptr, safe to
/// evaluate concurrently from any number of workers. Dialects are
/// classified per the engine policy (plan dialect + source dialect) and
/// come along with the cached `Query`.
///
/// Compiled programs are shared *structurally*: a per-alphabet index maps
/// `NodeHash(plan)` to the plans already lowered, matched with `NodeEquals`,
/// so two different texts that simplify to the same plan lower once (the
/// second is a program hit although it was a text miss). Nothing is
/// hash-consed across plans — each plan is hash-consed by its own
/// simplifier call, and the per-tree `W` memo (`TreeCache`) keys bodies
/// structurally too — so a miss does no work under the cache lock beyond
/// the index lookups and inserts.
///
/// Parse *errors* are not cached; they return through `Result` as usual.
///
/// Thread-safety: every method may be called concurrently. A miss takes
/// the cache lock only for the index lookups and inserts; parsing,
/// simplification, hashing and lowering run outside it, so cold compiles
/// on different threads overlap; a hit takes it once. The one step that
/// mutates the caller's `Alphabet` — the parser interning a new label — is
/// serialised on a second mutex the cache owns (`LockAlphabets`); any
/// other code that reads or writes an alphabet this cache may be parsing
/// against at the same time must hold that lock too.
///
/// Lifetime: entries are keyed on the `Alphabet*` address, so every alphabet
/// passed to `Parse`/`ParseCompiled` must outlive the cache — or be withdrawn
/// with `Purge(alphabet)` *before* it is destroyed. Without the purge, a new
/// alphabet allocated at a recycled address would alias the dead one's key
/// and hit plans whose Symbols were minted by the dead alphabet; the purge
/// also drops the alphabet's program index.
class PlanCache {
 public:
  /// A point-in-time read of the cache's obs counters (see the `plan_cache.*`
  /// names this instance also publishes into `obs::Registry::Default()`).
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    // Compiled-program counters (`ParseCompiled` only). Programs are keyed
    // by plan structure, so two different texts whose plans are equal
    // share one lowering: the second is a program hit even though it was
    // a text miss.
    size_t program_hits = 0;
    size_t program_misses = 0;   // == number of lowering runs
    double lowering_seconds = 0; // total wall time inside Program::Compile
  };

  /// What `ParseCompiled` hands out: the cached plan plus its compiled
  /// bytecode program (see exec/program.h). Both are immutable and safe to
  /// share across threads; the program stays valid for as long as the
  /// caller holds it, independent of cache eviction.
  struct CompiledQuery {
    std::shared_ptr<const Query> query;
    std::shared_ptr<const exec::Program> program;
  };

  explicit PlanCache(size_t capacity = 1024);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Cached equivalent of `Query::Parse(text, alphabet)`.
  Result<std::shared_ptr<const Query>> Parse(const std::string& text,
                                             Alphabet* alphabet);

  /// `Parse` plus a compiled bytecode program for the plan (the compiled
  /// execution backend's entry point). Programs are cached keyed by plan
  /// structure, so texts that simplify to the same plan compile once;
  /// lowering runs outside the cache lock. The strong program reference
  /// rides on the LRU entry, so a text hit returns its program with no
  /// further lookup; eviction releases it, but handed-out `CompiledQuery`s
  /// keep theirs alive (shared_ptr).
  Result<CompiledQuery> ParseCompiled(const std::string& text,
                                      Alphabet* alphabet);

  /// Drops every cached plan and program belonging to `alphabet`.
  /// Call before destroying an alphabet the cache has seen (see class
  /// comment). Plans already handed out stay valid (shared_ptr).
  void Purge(const Alphabet* alphabet);

  /// Holds the lock every parse through this cache takes around the
  /// parser — the only point at which the cache mutates an `Alphabet`
  /// (`Alphabet::Intern` of a new label may reallocate its name table).
  /// Take it to read (`Name`, `Find`) or extend an alphabet that other
  /// threads may be parsing queries against through this cache.
  [[nodiscard]] std::unique_lock<std::mutex> LockAlphabets() const {
    return std::unique_lock<std::mutex>(alphabet_mu_);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const;
  Stats stats() const;
  /// Slots in the program index over all alphabets, expired ones included
  /// (tests and reports).
  size_t program_slots() const;

 private:
  struct Key {
    const Alphabet* alphabet;
    std::string text;  // normalised

    bool operator==(const Key& other) const {
      return alphabet == other.alphabet && text == other.text;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Query> query;
    // Strong reference to the compiled program, set by ParseCompiled:
    // LRU residency is what keeps a program cached (the by-root map below
    // holds only weak references).
    std::shared_ptr<const exec::Program> program;
  };

  using LruList = std::list<Entry>;

  /// One alphabet's compiled programs, keyed by `NodeHash(plan)`, at most
  /// one live program per distinct plan structure. A slot holds its
  /// program weakly — a program's lifetime is governed by LRU entries and
  /// handed-out CompiledQuerys, not by this index — and matches on the
  /// program's own `plan()`, so an expired slot pins no expression.
  /// Expired slots are reused within their hash chain, and swept when the
  /// map reaches `next_sweep`: twice the cache capacity, or twice the live
  /// slots when callers hold far more programs than the LRU does — so the
  /// index stays within twice the capacity in steady serving, and sweeps
  /// cost amortised O(1) per miss.
  struct ProgramIndex {
    std::unordered_multimap<size_t, std::weak_ptr<const exec::Program>> slots;
    size_t next_sweep;
  };

  /// Looks `key` up; on a miss parses, simplifies and inserts it. Returns
  /// the entry's query and the program attached to it (null if none yet).
  Result<CompiledQuery> Lookup(const Key& key, Alphabet* alphabet);
  /// Moves a hit to the front; inserts + evicts on miss. Caller holds mu_.
  LruList::iterator Touch(LruList::iterator it);
  void InsertLocked(Entry entry);

  /// The live program compiled from a plan equal to `plan` (`hash` =
  /// NodeHash(*plan)) under `alphabet`, or null. Caller holds mu_.
  std::shared_ptr<const exec::Program> FindProgramLocked(
      const Alphabet* alphabet, const NodePtr& plan, size_t hash);
  /// Indexes `program` under `hash`, in an expired slot of its hash chain
  /// if there is one, else in a new slot after a sweep if one is due.
  /// Caller holds mu_.
  void InsertProgramLocked(
      const Alphabet* alphabet, size_t hash,
      const std::shared_ptr<const exec::Program>& program);
  /// Attaches `program` to the LRU entry for `key`, if resident.
  void AttachProgramLocked(const Key& key,
                           std::shared_ptr<const exec::Program> program);

  const size_t capacity_;
  mutable std::mutex mu_;
  // Serialises parser calls (alphabet mutation); never held with mu_.
  mutable std::mutex alphabet_mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  // Compiled programs keyed (alphabet, plan structure). Per-alphabet:
  // symbols from different alphabets must never be conflated even when
  // structurally equal. Purged with the alphabet.
  std::unordered_map<const Alphabet*, ProgramIndex> programs_;
  // Per-instance obs counters (`stats()` stays correct with many caches in
  // one process); a registry collector sums them across instances under
  // the `plan_cache.*` names. Declared after the counters it reads so the
  // collector unregisters before they are destroyed.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter program_hits_;
  obs::Counter program_misses_;
  obs::Counter lowering_ns_;
  obs::Registry::CollectorHandle collector_;
};

}  // namespace xptc

#endif  // XPTC_WORKLOAD_PLAN_CACHE_H_
