#include "spec/specification.h"

#include "ast/printer.h"

namespace chronolog {

std::string RelationalSpecification::ToString() const {
  std::string out;
  out += "T = {0, ..., " + std::to_string(num_representatives() - 1) + "}\n";
  out += "W = {" + std::to_string(rewrite_lhs()) + " -> " +
         std::to_string(rewrite_lhs() - period_.p) + "}\n";
  out += "B:\n";
  primary_.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
    GroundAtom atom(pred, time, args);
    out += "  " + GroundAtomToString(atom, primary_.vocab()) + "\n";
  });
  return out;
}

Result<RelationalSpecification> BuildSpecification(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options, SpecificationBuildInfo* info) {
  PeriodDetectionOptions detect_options = options;
  if (info != nullptr && detect_options.plan_report == nullptr) {
    detect_options.plan_report = &info->plans;
  }
  CHRONOLOG_ASSIGN_OR_RETURN(PeriodDetection detection,
                             DetectPeriod(program, db, detect_options));
  if (info != nullptr) {
    info->exact_period = detection.exact;
    info->stats = detection.stats;
    info->detection_horizon = detection.horizon;
  }
  // B = least model on the representative segment [0, b+c+p-1] plus the
  // non-temporal part (already inside the interpretation). The constructor
  // freezes only that segment, so the model is not truncated first: it is
  // dropped whole, which is cheaper than erasing its later cells one by one.
  return RelationalSpecification(detection.period, detection.c,
                                 std::move(detection.model));
}

}  // namespace chronolog
