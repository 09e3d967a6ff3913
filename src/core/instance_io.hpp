#pragma once

// Plain-text persistence for instances and assignments, so experiments can
// be archived and replayed. The format is line-oriented and versioned:
//
//   dlb-instance v1
//   machines <m> groups <g> jobs <n>
//   group_of <g_0> ... <g_{m-1}>
//   scales <s_0> ... <s_{m-1}>
//   types <t_0> ... <t_{n-1}>          (optional line)
//   costmodel <d_0> ... <d_{n-1}>      (optional line; per-job size
//                                       distribution specs, see
//                                       core/cost_model.hpp parse_dist)
//   costs
//   <row of group 0: n numbers>
//   ...
//
//   dlb-assignment v1
//   jobs <n>
//   <m_0> ... <m_{n-1}>                ("-" for unassigned)
//
// The loaders read through codec::TextReader (core/text_codec.hpp): bytes
// that do not fit the format throw std::runtime_error naming the row
// ("Instance::load: ..." / "Assignment::load: ..."), and values the
// Instance rules refuse throw std::invalid_argument. No row is sized from
// a count before its entries are read.

#include <iosfwd>
#include <string>

#include "core/assignment.hpp"
#include "core/instance.hpp"

namespace dlb::io {

void save_instance(const Instance& instance, std::ostream& out);
[[nodiscard]] Instance load_instance(std::istream& in);

void save_assignment(const Assignment& assignment, std::ostream& out);
[[nodiscard]] Assignment load_assignment(std::istream& in);

/// File-path conveniences (throw std::runtime_error on I/O failure).
void save_instance_file(const Instance& instance, const std::string& path);
[[nodiscard]] Instance load_instance_file(const std::string& path);

}  // namespace dlb::io
