// Queries over semi-structured descriptors, and the covering partial order.
//
// A Query is a conjunctive predicate over XML descriptors, written in the
// paper's XPath subset (Section III-B). It consists of a root element name
// and a set of constraints; each constraint names a field by its path from
// the root and optionally requires an exact value:
//
//     /article[author/first=John][author/last=Smith][conf=INFOCOM]
//
// The paper's location-path style is accepted on input too, where the last
// step of a path is the value: /article/author/last/Smith.
//
// Queries are *normalized*: constraints are sorted and deduplicated, so two
// equivalent XPath spellings produce the same canonical string and hence the
// same DHT key (footnote 1 of the paper). The covering relation q' covers q
// (q' ⊒ q) holds when every descriptor matching q also matches q'; for the
// conjunctive queries of this subset it is decided exactly by constraint
// implication.
//
// A Query is one heap buffer that *is* its canonical form (DESIGN.md section
// 16): a header (sizes, the cover bits, the memoized DHT key), one slot per
// constraint pointing at its path and value inside the canonical text, the
// canonical bytes, and after them the unescaped bytes of any quoted values.
// Reads -- canonical(), covers(), matches(), the cover bits -- walk the
// slots; builders gather constraint views, normalize them and encode one new
// buffer. Copying a query is one allocation.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/id.hpp"
#include "xml/node.hpp"

namespace dhtidx::query {

/// One conjunct of a query: the field at `path` (relative to the root
/// element) must exist and, if `value` is set, its text must equal it —
/// or begin with it when `value_is_prefix` is set (Section IV-C: "more
/// generic queries can be obtained from more specific queries by removing
/// only portions of element names", e.g. an index of all authors starting
/// with the letter "A"). When `descendant` is true the path may match at
/// any depth (XPath //).
///
/// The path is one slash-joined string ("author/last"). Steps are never
/// empty (add_constraint rejects "", "a//b", "/a" and "a/"). Constraint owns
/// its strings and is what builders take; a Query hands out ConstraintViews
/// of the same shape.
struct Constraint {
  std::string path;                   ///< slash-joined element names; a "*" step matches any name
  std::optional<std::string> value;   ///< exact or prefix text, or presence-only
  bool descendant = false;            ///< true for // paths
  bool value_is_prefix = false;       ///< value is a prefix pattern (^= syntax)

  /// The top-level field: the path up to its first '/'.
  std::string_view first_step() const {
    return std::string_view{path}.substr(0, path.find('/'));
  }

  /// Orders by path, then value, descendant, value_is_prefix, exactly as
  /// ConstraintView does.
  std::strong_ordering operator<=>(const Constraint& other) const;
  bool operator==(const Constraint&) const = default;
};

/// A constraint read in place: the members of Constraint as views into a
/// query's buffer (or into a Constraint). Valid while what it views lives
/// unchanged. Converts to an owning Constraint.
struct ConstraintView {
  std::string_view path;
  std::optional<std::string_view> value;
  bool descendant = false;
  bool value_is_prefix = false;

  ConstraintView() = default;
  ConstraintView(std::string_view path_in, std::optional<std::string_view> value_in,
                 bool descendant_in = false, bool value_is_prefix_in = false)
      : path(path_in),
        value(value_in),
        descendant(descendant_in),
        value_is_prefix(value_is_prefix_in) {}
  /// Implicit: a Constraint reads as its view.
  ConstraintView(const Constraint& c)
      : path(c.path),
        value(c.value ? std::optional<std::string_view>{*c.value} : std::nullopt),
        descendant(c.descendant),
        value_is_prefix(c.value_is_prefix) {}

  /// Implicit: a view converts to an owning constraint.
  operator Constraint() const {
    Constraint c;
    c.path = path;
    if (value) c.value.emplace(*value);
    c.descendant = descendant;
    c.value_is_prefix = value_is_prefix;
    return c;
  }

  /// "author/last" rendering of the path.
  std::string_view path_string() const { return path; }
  /// The top-level field: the path up to its first '/'.
  std::string_view first_step() const { return path.substr(0, path.find('/')); }

  /// Orders by path, then value, descendant, value_is_prefix. Paths compare
  /// step by step, exactly as vectors of their steps would: a step boundary
  /// ('/') sorts before any character, and the end of a path before a
  /// boundary. Normalization order, and hence canonical strings and DHT
  /// keys, depend on exactly this order.
  std::strong_ordering operator<=>(const ConstraintView& other) const;
  bool operator==(const ConstraintView&) const = default;
};

/// True when the slash-joined `path` has exactly the steps `steps`, without
/// joining them.
bool path_equals(std::string_view path, const std::vector<std::string>& steps);

/// A normalized conjunctive query. Regular value type; one heap buffer (see
/// the file comment). The default (and moved-from) query has an empty root,
/// no constraints and the canonical form "/".
class Query {
 public:
  class ConstraintRange;

  Query() = default;
  explicit Query(std::string_view root);
  /// Normalizes `constraints` (sort, deduplicate) and encodes them once:
  /// Query{"article", {{"title", "TCP"}, {"year", "1989"}}}. The views need
  /// only outlive the call. Throws InvariantError for a path with an empty
  /// step.
  Query(std::string_view root, std::vector<ConstraintView> constraints);
  Query(const Query& other);
  Query(Query&& other) noexcept : buf_(other.buf_) { other.buf_ = nullptr; }
  Query& operator=(const Query& other);
  Query& operator=(Query&& other) noexcept;
  ~Query();

  /// Parses the XPath subset (see parser.hpp for the grammar).
  /// Throws ParseError on malformed input.
  static Query parse(std::string_view text);

  /// The most specific query (MSD) of a descriptor: one value constraint per
  /// leaf element. Satisfies msd.matches(descriptor) and is covered by every
  /// query the descriptor matches.
  static Query most_specific(const xml::Element& descriptor);

  std::string_view root() const;
  /// The constraints in normalized order, as views into this query.
  ConstraintRange constraints() const;
  bool has_constraints() const;

  /// Adds a constraint and re-encodes. Returns *this for chaining. Throws
  /// InvariantError for a path with an empty step.
  Query& add_constraint(const ConstraintView& constraint);

  /// Convenience: add_field("author/last", "Smith").
  Query& add_field(std::string_view slash_path, std::string_view value);

  /// Convenience: presence-only constraint.
  Query& add_presence(std::string_view slash_path);

  /// Convenience: prefix constraint, add_prefix("author/last", "S").
  Query& add_prefix(std::string_view slash_path, std::string_view prefix);

  /// Canonical text form: deterministic for equivalent queries and distinct
  /// for distinct ones; this is what gets hashed into the DHT key. A view
  /// into the query's buffer.
  std::string_view canonical() const;

  /// DHT key of the canonical form. Memoized in the buffer header: the SHA-1
  /// runs once per query object, and copies carry the warm key along, so a
  /// query handed down a lookup walk is hashed at most once. Like any lazy
  /// memo it is not synchronized: a query shared across threads must have
  /// key() called once before it is shared (QueryInterner::intern does).
  const Id& key() const;

  /// Serialized size used for traffic accounting.
  std::size_t byte_size() const { return canonical().size(); }

  /// True when `doc` satisfies the root name and every constraint.
  bool matches(const xml::Element& doc) const;

  /// True when *this covers `other`: every descriptor matching `other` also
  /// matches *this. Exact for wildcard-free queries; sound (never falsely
  /// true) in the presence of wildcards and descendant paths.
  bool covers(const Query& other) const;

  /// True when *this is exactly the most specific query of `doc`.
  bool is_most_specific_of(const xml::Element& doc) const;

  /// All queries obtained by dropping exactly one constraint: the immediate
  /// generalizations used when looking up non-indexed queries (Section IV-B).
  std::vector<Query> drop_one_generalizations() const;

  /// Query with the constraints at the given positions kept.
  Query keep_constraints(const std::vector<std::size_t>& keep) const;

  /// Canonical text is injective, so equality is byte equality.
  bool operator==(const Query& other) const { return canonical() == other.canonical(); }
  bool operator<(const Query& other) const { return canonical() < other.canonical(); }

  friend std::uint64_t required_bits(const Query& q);
  friend std::uint64_t present_bits(const Query& q);

 private:
  struct Header;
  struct Slot;

  /// Normalizes `constraints` in place and encodes them under `root`. The
  /// views may point into *this or any other live buffer.
  static Query encode(std::string_view root, std::vector<ConstraintView>& constraints);

  const Header* header() const;
  const Slot* slots() const;
  const char* text() const;
  std::size_t size() const;
  ConstraintView view_at(std::size_t i) const;
  static ConstraintView view_of(const Slot& slot, const char* text);

  char* buf_ = nullptr;  // nullptr: the empty query "/"
};

/// The constraints of a Query, read in place. Indexable and iterable; each
/// element is a ConstraintView valid while the query lives unchanged.
class Query::ConstraintRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = ConstraintView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ConstraintView;

    iterator() = default;
    iterator(const Query* q, std::size_t i) : q_(q), i_(i) {}
    ConstraintView operator*() const { return q_->view_at(i_); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    const Query* q_ = nullptr;
    std::size_t i_ = 0;
  };

  ConstraintRange(const Query* q, std::size_t n) : q_(q), n_(n) {}
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  ConstraintView operator[](std::size_t i) const { return q_->view_at(i); }
  ConstraintView front() const { return q_->view_at(0); }
  iterator begin() const { return {q_, 0}; }
  iterator end() const { return {q_, n_}; }

 private:
  const Query* q_;
  std::size_t n_;
};

/// Hash functor over canonical form for unordered containers.
struct QueryHasher {
  std::size_t operator()(const Query& q) const {
    return std::hash<std::string_view>{}(q.canonical());
  }
};

/// True when constraint `general` is implied by constraint `specific` (every
/// document satisfying `specific` satisfies `general`). Exposed for tests.
bool constraint_implies(const ConstraintView& specific, const ConstraintView& general);

/// Cover bits: a 64-bit summary that rules out most non-covering pairs
/// without calling covers(). Each constraint hashes to one bit.
/// required_bits(q) is the OR over q's *plain* constraints -- an exact value
/// on an anchored path with no "*" step -- and present_bits(q) the OR over
/// all of q's constraints. constraint_implies() accepts a plain `general`
/// only from an identical `specific`, so a.covers(b) implies
/// (required_bits(a) & ~present_bits(b)) == 0; a nonzero result proves
/// that a does not cover b. Both are computed once, when the query is
/// encoded, and read from its header.
std::uint64_t required_bits(const Query& q);
std::uint64_t present_bits(const Query& q);

}  // namespace dhtidx::query
