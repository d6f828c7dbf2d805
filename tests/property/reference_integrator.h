#ifndef ECRINT_TESTS_PROPERTY_REFERENCE_INTEGRATOR_H_
#define ECRINT_TESTS_PROPERTY_REFERENCE_INTEGRATOR_H_

#include <string>
#include <vector>

#include "core/integrator.h"

namespace ecrint::core::reference {

// Phase 4 over an already-seeded closure, as core::IntegrateSeeded computed
// it before it moved to dense ids: all-pairs scans through the store's
// ObjectRef API. Slow (quadratic in string-hashed probes, exponential in
// category depth); for tests only.
Result<IntegrationResult> IntegrateSeeded(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& seeded,
    const IntegrationOptions& options = {});

}  // namespace ecrint::core::reference

#endif  // ECRINT_TESTS_PROPERTY_REFERENCE_INTEGRATOR_H_
