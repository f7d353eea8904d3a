#ifndef CHRONOLOG_SPEC_SERIALIZE_H_
#define CHRONOLOG_SPEC_SERIALIZE_H_

#include <string>
#include <string_view>

#include "spec/specification.h"
#include "util/result.h"

namespace chronolog {

/// Serialises a relational specification into a self-contained text form:
///
///   %!chronolog-spec 1
///   %!period b=0 p=2 c=0
///   @temporal even/1.
///   even(0).
///
/// Header lines are `%`-comments, so the body doubles as ordinary chronolog
/// source; `@predicate`/`@temporal` directives pin the full schema even for
/// empty relations. Directives and facts follow predicate names, then
/// time, then the text of the fact, so `Serialize(Deserialize(Serialize(s)))`
/// reproduces `Serialize(s)` byte for byte. A saved specification answers queries
/// without re-running period detection — compile once, ship the artefact.
std::string SerializeSpecification(const RelationalSpecification& spec);

/// Parses a serialised specification back. Fails with kInvalidArgument on a
/// missing/malformed header or when the body contains rules.
Result<RelationalSpecification> DeserializeSpecification(
    std::string_view text);

}  // namespace chronolog

#endif  // CHRONOLOG_SPEC_SERIALIZE_H_
