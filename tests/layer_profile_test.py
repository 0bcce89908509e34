#!/usr/bin/env python3
"""Checks tools/layer_profile.py's phase and layer rules on synthetic stacks.

    python3 tests/layer_profile_test.py path/to/layer_profile.py

A chain is what addr2line -i yields for one sample, innermost frame first.
Timed set-up must be recognised even where its marker's own frame was
tail-called away (a workload host's Begin jumping to the pattern's Begin),
the engine run and the calibration kernels must win over it, and helper
frames (the packet ring buffer) are charged to the layer that called them.
"""
import importlib.util
import os
import sys
import unittest

lp = None  # the layer_profile module, loaded from argv in __main__


def frame(fn, rel):
    return (fn, os.path.join(lp.ROOT, rel))


def trial(*inner):
    """`inner` frames under perfbench's trial loop."""
    return list(inner) + [
        frame("(anonymous namespace)::RunTrial(Scenario const&, unsigned "
              "long, bool)", "perfbench/bench.cc"),
        frame("main", "perfbench/bench.cc")]


class Phases(unittest.TestCase):
    def test_tail_called_pattern_begin_is_setup(self):
        # VerbsWorkloadHost::Begin tail-called QpChurnPattern::Begin, so
        # the host's Begin frame is gone from the stack.
        chain = trial(
            frame("dcqcn::host::HostPathDevice::CreateQp(int)",
                  "src/host/host_device.cc"),
            frame("dcqcn::workload::VerbsWorkloadHost::LaunchFlow("
                  "dcqcn::workload::EmitSpec const&)",
                  "src/workload/verbs_host.cc"),
            frame("dcqcn::workload::QpChurnPattern::Begin("
                  "dcqcn::workload::WorkloadHost&)",
                  "src/workload/qp_churn.cc"))
        self.assertEqual(lp.phase_of(chain), "setup")
        self.assertEqual(lp.charge(chain), ("host", "host/host_device.cc"))

    def test_parse_specs_and_inline_network_constructor_are_setup(self):
        for fn, rel in (
                ("dcqcn::hybrid::ParseHybridSpec(std::string const&, "
                 "dcqcn::hybrid::HybridConfig*)", "src/hybrid/engine.cc"),
                ("dcqcn::workload::ParseWorkloadSpec(std::string const&)",
                 "src/workload/workload.cc"),
                ("dcqcn::Network::Network(unsigned long)",
                 "src/net/network.h")):
            chain = trial(
                frame("std::__cxx11::basic_string<char>::_M_append("
                      "char const*, unsigned long)",
                      "/usr/include/c++/12/bits/basic_string.tcc"),
                frame(fn, rel))
            with self.subTest(fn=fn):
                self.assertEqual(lp.phase_of(chain), "setup")

    def test_run_until_is_run(self):
        chain = trial(
            frame("dcqcn::SharedBufferSwitch::ReceivePacket("
                  "dcqcn::Packet const&, int)", "src/net/switch.cc"),
            frame("dcqcn::EventQueue::RunUntil(long)",
                  "src/sim/event_queue.h"))
        self.assertEqual(lp.phase_of(chain), "run")
        # The run marker wins over a set-up marker further in.
        chain = trial(
            frame("dcqcn::workload::PoissonPattern::Begin("
                  "dcqcn::workload::WorkloadHost&)",
                  "src/workload/poisson.cc"),
            frame("dcqcn::EventQueue::RunUntil(long)",
                  "src/sim/event_queue.h"))
        self.assertEqual(lp.phase_of(chain), "run")

    def test_calibration_kernel_is_dropped(self):
        chain = trial(
            frame("(anonymous namespace)::KernelSeconds(unsigned long, int)",
                  "perfbench/bench.cc"),
            frame("(anonymous namespace)::CalibrationSeconds(double)",
                  "perfbench/bench.cc"))
        self.assertEqual(lp.phase_of(chain), "calibration")

    def test_teardown_is_untimed(self):
        chain = trial(frame("dcqcn::Network::~Network()",
                            "src/net/network.h"))
        self.assertEqual(lp.phase_of(chain), "untimed")
        # A Begin outside src/workload/ is no set-up marker.
        chain = trial(frame("dcqcn::Other::Begin()", "src/net/link.cc"))
        self.assertEqual(lp.phase_of(chain), "untimed")


class Charge(unittest.TestCase):
    def test_ring_buffer_goes_to_its_switch_caller(self):
        chain = trial(
            frame("dcqcn::RingBuffer<dcqcn::SharedBufferSwitch::StoredPacket>"
                  "::push_back(dcqcn::SharedBufferSwitch::StoredPacket&&)",
                  "src/sim/ring_buffer.h"),
            frame("dcqcn::SharedBufferSwitch::AdmitAndEnqueue("
                  "dcqcn::Packet const&, int, int)", "src/net/switch.cc"),
            frame("dcqcn::EventQueue::RunUntil(long)",
                  "src/sim/event_queue.h"))
        self.assertEqual(lp.charge(chain), ("switch", "net/switch.cc"))

    def test_route_plan_is_setup(self):
        # A route-plan build (or an intern-table key comparison, whose
        # std::vector frames sit outside src/) under BuildClos.
        for inner in (
                [frame("dcqcn::RouteTable::Set(std::span<int const, "
                       "18446744073709551615ul>, std::vector<int, "
                       "std::allocator<int> > const&)",
                       "src/net/route_plan.cc"),
                 frame("dcqcn::BuildRoutePlan(dcqcn::RouteWiring const&)",
                       "src/net/route_plan.cc")],
                [frame("std::operator==<dcqcn::WiredPort>("
                       "std::vector<dcqcn::WiredPort> const&, "
                       "std::vector<dcqcn::WiredPort> const&)",
                       "/usr/include/c++/12/bits/stl_vector.h"),
                 frame("dcqcn::InternRoutePlan(dcqcn::RouteWiring const&)",
                       "src/net/route_plan.cc")]):
            chain = trial(*inner,
                          frame("dcqcn::Network::BuildRoutes()",
                                "src/net/network.cc"),
                          frame("dcqcn::BuildClos(dcqcn::Network&, "
                                "dcqcn::ClosShape const&, "
                                "dcqcn::TopologyOptions const&)",
                                "src/net/topology.cc"))
            with self.subTest(fn=inner[0][0]):
                self.assertEqual(lp.phase_of(chain), "setup")
                self.assertEqual(lp.charge(chain),
                                 ("setup", "net/route_plan.cc"))

    def test_frames_outside_src_are_unattributed(self):
        chain = trial(frame("memcpy", "/usr/lib/libc.so.6"))
        self.assertEqual(lp.charge(chain), (None, None))


if __name__ == "__main__":
    spec = importlib.util.spec_from_file_location("layer_profile",
                                                  sys.argv.pop(1))
    lp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lp)
    unittest.main()
