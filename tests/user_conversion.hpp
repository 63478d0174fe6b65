#ifndef MSC_TESTS_USER_CONVERSION_HPP
#define MSC_TESTS_USER_CONVERSION_HPP

// The automaton users get, for tests that run or inspect it: conversion
// stages of a pass pipeline, run by the pass manager over a graph that
// driver::compile() already simplified. Tests whose subject is the
// conversion engine itself call core::meta_state_convert directly.

#include <string>
#include <vector>

#include "msc/pass/pass.hpp"

namespace msc::test {

/// The conversion stages of the default pipeline, and of the ones mscc
/// --compress and --split select.
inline const std::vector<std::string> kStages = {"convert", "subsume",
                                                 "straighten"};
inline const std::vector<std::string> kCompressStages = {
    "compress", "convert", "subsume", "straighten"};
inline const std::vector<std::string> kSplitStages = {
    "time-split", "convert", "subsume", "straighten"};

/// Run `stages` over a copy of `graph`. `base` carries the engine options
/// (barrier mode, limits, threads), never the compress/time-split modes.
inline core::ConvertResult convert(const ir::StateGraph& graph,
                                   const ir::CostModel& cost,
                                   const std::vector<std::string>& stages =
                                       kStages,
                                   const core::ConvertOptions& base = {}) {
  return pass::run_conversion_pipeline(graph, cost, stages, base);
}

}  // namespace msc::test

#endif  // MSC_TESTS_USER_CONVERSION_HPP
