#ifndef ECRINT_ECR_PRINTER_H_
#define ECRINT_ECR_PRINTER_H_

#include <string>
#include <vector>

#include "ecr/schema.h"

namespace ecrint::ecr {

// Canonical DDL for the schema; round-trips through ParseSchema whenever the
// schema contains no integration-derived structures with provenance-only
// state (which DDL cannot express — those print as ordinary structures).
std::string ToDdl(const Schema& schema);

// Human-oriented indented outline: every object class with its own and
// inherited attributes, IS-A edges, and relationship participations. This is
// the textual stand-in for the paper's schema diagrams (Figures 3-5).
std::string ToOutline(const Schema& schema);

// The outline's lines, without their newlines, appended to `lines`: the
// one renderer behind ToOutline and the service's integrate and outline
// replies.
void AppendOutlineLines(const Schema& schema, std::vector<std::string>& lines);

// One-line summary, e.g. "sc1: 2 entities, 0 categories, 1 relationships".
std::string Summarize(const Schema& schema);

}  // namespace ecrint::ecr

#endif  // ECRINT_ECR_PRINTER_H_
