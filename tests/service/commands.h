// ServiceCommand builders for the service tests that drive
// IntegrationService::Execute directly, one per verb a test sends.

#ifndef ECRINT_TESTS_SERVICE_COMMANDS_H_
#define ECRINT_TESTS_SERVICE_COMMANDS_H_

#include <string>
#include <utility>
#include <vector>

#include "service/service.h"

namespace ecrint::service::commands {

using Op = ServiceCommand::Op;

// A verb without arguments: integrate (all schemas), export, outline, ...
inline ServiceCommand Bare(Op op) {
  ServiceCommand command;
  command.op = op;
  return command;
}

inline ServiceCommand Define(std::string ddl) {
  ServiceCommand command = Bare(Op::kDefine);
  command.text = std::move(ddl);
  return command;
}

inline ServiceCommand Equiv(ecr::AttributePath a, ecr::AttributePath b) {
  ServiceCommand command = Bare(Op::kEquiv);
  command.path_a = std::move(a);
  command.path_b = std::move(b);
  return command;
}

inline ServiceCommand Assert(core::ObjectRef first, int type_code,
                             core::ObjectRef second) {
  ServiceCommand command = Bare(Op::kAssert);
  command.first = std::move(first);
  command.type_code = type_code;
  command.second = std::move(second);
  return command;
}

inline ServiceCommand Integrate(std::vector<std::string> schemas) {
  ServiceCommand command = Bare(Op::kIntegrate);
  command.schemas = std::move(schemas);
  return command;
}

// rank <schema1> <schema2> over object classes, `zero` when include_zero.
inline ServiceCommand Rank(std::string schema1, std::string schema2,
                           bool include_zero) {
  ServiceCommand command = Bare(Op::kRank);
  command.schema1 = std::move(schema1);
  command.schema2 = std::move(schema2);
  command.include_zero = include_zero;
  return command;
}

}  // namespace ecrint::service::commands

#endif  // ECRINT_TESTS_SERVICE_COMMANDS_H_
