"""The benchmark's workloads: how each problem and search configuration is
built through treebound's public API, and what it is checked against.

A workload is one pinned problem run at a fixed step budget over a panel
of search seeds.  The benchmark seed picks the panel, so two seeds give
two disjoint panels of the same problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

import treebound as tb
from treebound import bench

import reference as ref


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int            # step budget of every optimize call
    panel: int            # search seeds per benchmark seed
    make_inputs: Callable  # output dir -> inputs (files it writes live there)
    build: Callable       # inputs -> (BenchmarkProblem, SearchConfig)
    formula: Callable     # inputs -> numpy objective over the last axis
    optimum: Callable     # inputs -> f*

    def search_seeds(self, seed):
        """The panel of search seeds for one benchmark seed."""
        return [seed * self.panel + j for j in range(self.panel)]

    def configure(self, config, search_seed):
        """``config`` at the workload's step budget and one search seed."""
        return replace(config, seed=search_seed, step_budget=self.steps)


def _relu_inputs(out_dir):
    payload = ref.relu_net_payload()
    path = out_dir / "relu-10x16.json"
    path.write_text(json.dumps(payload))
    return {"path": path, "payload": payload}


def _no_inputs(out_dir):
    return None


def _builtin(name, dims):
    def build(inputs):
        return (bench.make_builtin(name, dims),
                bench.table_defaults(name, dims, tb.SearchConfig()))
    return build


WORKLOADS = {w.name: w for w in (
    # interval bounds dominate, and root.lb keeps rising with the tree
    Workload("relu-10x16", steps=50, panel=4,
             make_inputs=_relu_inputs,
             build=lambda inputs: (bench.nn_problem(inputs["path"]),
                                   tb.SearchConfig()),
             formula=lambda inputs: ref.relu_net(inputs["payload"]),
             optimum=lambda inputs: ref.relu_net_optimum(inputs["payload"])),
    # setup and the derivative kernels dominate; 20 children per step
    Workload("ackley-100d", steps=10, panel=4,
             make_inputs=_no_inputs,
             build=_builtin("ackley", 100),
             formula=lambda inputs: ref.ackley,
             optimum=lambda inputs: ref.ackley_optimum(100)),
    # cheap kernels, so tree bookkeeping has its largest share
    Workload("michalewicz-10d", steps=80, panel=12,
             make_inputs=_no_inputs,
             build=_builtin("michalewicz", 10),
             formula=lambda inputs: ref.michalewicz,
             optimum=lambda inputs: ref.michalewicz_optimum(10)),
)}
