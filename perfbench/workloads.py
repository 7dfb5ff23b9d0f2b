"""The benchmark's workloads: seeded inputs, the timed call and its output check.

Every input is generated here from the benchmark's ``--seed``; the program
under test only ever receives the circuits (plus the observable of the
sweep).  ``README.md`` in this directory records why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import networkx as nx
import numpy as np

import repro
from repro import PauliObservable, QuantumCircuit, SimulatorConfig
from repro.applications import maxcut_observable, qaoa_maxcut_circuit, random_regular_graph
from repro.circuits import prepare_basis_state, qft_circuit

SHOTS = 1000
LOSSY_BOUND = 1e-3
#: Lossless runs must match the dense reference to within float64 rounding.
LOSSLESS_MIN_FIDELITY = 1.0 - 1e-12

_SZ = {"lossy_compressor": "sz", "start_lossless": False, "error_levels": (LOSSY_BOUND,)}
_XOR = {"lossy_compressor": "xor-bitplane", "start_lossless": False, "error_levels": (LOSSY_BOUND,)}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a circuit family, its size and its config."""

    name: str
    family: str  # "qft" or "qaoa"
    qubits: int
    circuits: int
    config: dict
    lossless: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qft16-lossless", "qft", 16, 1, {}, True),
        Workload("qft16-sz", "qft", 16, 1, _SZ, False),
        Workload("qaoa14-sweep", "qaoa", 14, 8, _XOR, False),
        Workload("qft16-sz-ranked2", "qft", 16, 1, {**_SZ, "comm": "process", "num_ranks": 2}, False),
    )
}

#: Register sizes of the warm-up call: the same code paths as the timed
#: call, at a size that costs a fraction of a second.
_WARMUP_QUBITS = {"qft": 10, "qaoa": 8}


@dataclass
class Inputs:
    """Everything one ``repro.run()`` call of a workload receives."""

    circuits: list[QuantumCircuit]
    observable: PauliObservable | None
    config: SimulatorConfig
    run_seed: int

    @property
    def gates(self) -> int:
        """Input gates of one call, counted before fusion."""

        return sum(len(circuit) for circuit in self.circuits)


def _qft(rng: np.random.Generator, qubits: int) -> list[QuantumCircuit]:
    # An odd basis state gives the QFT output its full period 2^n, the
    # generic (least compressible) case; even states with many trailing
    # zero bits compress up to 180x and would make the cost swing by 4x
    # from seed to seed.  Half the bits are set, so every seed prepares
    # the state with the same number of X gates.
    ones = rng.choice(np.arange(1, qubits), size=qubits // 2 - 1, replace=False)
    basis_state = 1 + sum(1 << int(bit) for bit in ones)
    circuit = QuantumCircuit(qubits, name=f"qft{qubits}_x{basis_state}")
    circuit.compose(prepare_basis_state(qubits, basis_state))
    circuit.compose(qft_circuit(qubits))
    return [circuit]


def _qaoa(rng: np.random.Generator, nodes: int, count: int):
    drawn = random_regular_graph(nodes, degree=3, seed=int(rng.integers(2**31)))
    # Number the nodes in Cuthill-McKee order and add the edges sorted, so
    # edges join nearby qubits and those on the block-index qubits come
    # last.  Without it the cache hit share swings from 19% to 42% with the
    # seed, and run_s with it.
    order = {node: index for index, node in enumerate(nx.utils.cuthill_mckee_ordering(drawn))}
    graph = nx.Graph()
    graph.add_nodes_from(range(nodes))
    graph.add_edges_from(sorted(tuple(sorted((order[u], order[v]))) for u, v in drawn.edges))
    gammas = np.sort(rng.uniform(0.1, 1.0, 2))
    betas = np.sort(rng.uniform(0.1, 1.2, count // 2))
    circuits = [qaoa_maxcut_circuit(graph, [g], [b]) for g in gammas for b in betas]
    return circuits[:count], maxcut_observable(graph)


def generate(workload: Workload, seed: int, *, warmup: bool = False) -> Inputs:
    """The inputs of *workload* for *seed*; ``warmup`` gives the small ones."""

    rng = np.random.default_rng([seed, int(warmup)])
    qubits = _WARMUP_QUBITS[workload.family] if warmup else workload.qubits
    observable = None
    if workload.family == "qft":
        circuits = _qft(rng, qubits)
    else:
        circuits, observable = _qaoa(rng, qubits, 2 if warmup else workload.circuits)
    return Inputs(
        circuits=circuits,
        observable=observable,
        config=SimulatorConfig(**workload.config),
        run_seed=int(rng.integers(2**31)),
    )


def digest(inputs: Inputs) -> str:
    """SHA-256 over a canonical byte form of *inputs* (for the seed test)."""

    hasher = hashlib.sha256()
    for circuit in inputs.circuits:
        hasher.update(f"{circuit.name}/{circuit.num_qubits}".encode())
        for gate in circuit:
            hasher.update(repr((gate.name, gate.targets, gate.controls, gate.params)).encode())
            hasher.update(np.ascontiguousarray(gate.matrix, dtype=np.complex128).tobytes())
    if inputs.observable is not None:
        hasher.update(repr(inputs.observable.terms).encode())
    hasher.update(repr(inputs.config).encode())
    hasher.update(struct.pack("<q", inputs.run_seed))
    return hasher.hexdigest()


def call(inputs: Inputs) -> list:
    """One iteration: a single ``repro.run()`` call, results as a list.

    The statevector is returned so every iteration's output can be checked
    against the dense reference; materialising it decompresses each block
    once, well under 1% of an iteration.
    """

    circuits = inputs.circuits if len(inputs.circuits) > 1 else inputs.circuits[0]
    out = repro.run(
        circuits,
        shots=SHOTS,
        observables=inputs.observable,
        seed=inputs.run_seed,
        return_statevector=True,
        config=inputs.config,
    )
    return [out] if isinstance(out, repro.Result) else list(out)


def reference(inputs: Inputs) -> list:
    """Dense-backend results of the same circuits (computed untimed)."""

    out = repro.run(
        inputs.circuits,
        backend="dense",
        observables=inputs.observable,
        return_statevector=True,
    )
    return list(out)


@dataclass
class Outcome:
    """Output check and end-to-end figures of one iteration."""

    problems: list[str]
    fidelity: float
    fidelity_bound: float
    state_bytes_peak: int
    compression_ratio_min: float


def check(workload: Workload, inputs: Inputs, results: list, dense: list) -> Outcome:
    """Check one iteration's results against the dense reference.

    Lossless runs must reach fidelity 1 - 1e-12; lossy runs must reach the
    reported Π(1-δ) lower bound, and on the sweep each ZZ expectation must
    lie within ``2 * sum|c| * sqrt(1 - bound^2)`` of the dense value (the
    trace-distance bound the fidelity bound implies).
    """

    problems = []
    fidelities, bounds = [], []
    if len(results) != len(dense):
        problems.append(f"{len(results)} results for {len(dense)} circuits")
    for index, (result, ref) in enumerate(zip(results, dense)):
        report = result.report
        # Lossy blocks do not keep the norm, so both states are normalised
        # (as sampling does) before taking |<dense|psi>|.
        psi, dense_psi = result.statevector, ref.statevector
        fidelity = float(abs(np.vdot(dense_psi, psi)) / (np.linalg.norm(dense_psi) * np.linalg.norm(psi)))
        bound = report["fidelity_lower_bound"]
        fidelities.append(fidelity)
        bounds.append(bound)
        floor = LOSSLESS_MIN_FIDELITY if workload.lossless else bound
        if not fidelity >= floor:
            problems.append(f"circuit {index}: fidelity {fidelity!r} < {floor!r}")
        shots = sum(result.counts.values()) if result.counts else 0
        if shots != SHOTS:
            problems.append(f"circuit {index}: {shots} shots sampled, asked {SHOTS}")
        if inputs.observable is not None:
            label = inputs.observable.label
            norm = sum(abs(coefficient) for coefficient, _ in inputs.observable.terms)
            tolerance = 2.0 * norm * math.sqrt(max(0.0, 1.0 - bound * bound))
            error = abs(result.expectation(label) - ref.expectation(label))
            if not error <= tolerance:
                problems.append(f"circuit {index}: <ZZ> off by {error!r} > {tolerance!r}")
    reports = [result.report for result in results]
    return Outcome(
        problems=problems,
        fidelity=min(fidelities, default=0.0),
        fidelity_bound=min(bounds, default=0.0),
        state_bytes_peak=max((r["peak_footprint_bytes"] for r in reports), default=0),
        compression_ratio_min=min((r["min_compression_ratio"] for r in reports), default=0.0),
    )
