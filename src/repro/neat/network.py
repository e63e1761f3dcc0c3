"""Feed-forward network evaluation of an evolved genome.

The software reference for inference: the genome's enabled connections
form an acyclic directed graph (Section III-C2 — "Inference on such
topologies is basically processing an acyclic directed graph"), which we
topologically levelise and evaluate node-by-node.  The hardware inference
engine model (:mod:`repro.hw.adam`) packs the same levelised vertex
updates into systolic matrix-vector products and is tested for functional
equivalence against this class.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .activations import ActivationFunctionSet
from .aggregations import AggregationFunctionSet
from .config import GenomeConfig
from .genome import Genome

_ACTIVATIONS = ActivationFunctionSet()
_AGGREGATIONS = AggregationFunctionSet()


def required_for_output(
    inputs: Sequence[int], outputs: Sequence[int], connections: Sequence[Tuple[int, int]]
) -> Set[int]:
    """Nodes whose value can influence an output (pruning dead subgraphs)."""
    required = set(outputs)
    frontier = set(outputs)
    incoming: Dict[int, List[int]] = {}
    for src, dst in connections:
        incoming.setdefault(dst, []).append(src)
    while frontier:
        node = frontier.pop()
        for src in incoming.get(node, ()):
            if src not in required and src not in inputs:
                required.add(src)
                frontier.add(src)
    return required


def feed_forward_layers(
    inputs: Sequence[int], outputs: Sequence[int], connections: Sequence[Tuple[int, int]]
) -> List[List[int]]:
    """Topologically levelise the graph into evaluation layers.

    Layer *k* contains nodes whose every in-edge originates in layers < k
    (or at an input).  This levelisation is exactly the "vectorize routine"
    the paper runs on the System CPU "to pack nodes into well formed input
    vectors" (Section IV-A) — each layer is one wave of concurrent vertex
    updates.
    """
    required = required_for_output(inputs, outputs, connections)
    evaluated: Set[int] = set(inputs)
    pending = set(required)
    layers: List[List[int]] = []
    incoming: Dict[int, List[int]] = {}
    for src, dst in connections:
        incoming.setdefault(dst, []).append(src)
    while pending:
        ready = sorted(
            node
            for node in pending
            if all(src in evaluated for src in incoming.get(node, ()))
        )
        if not ready:
            raise ValueError("graph is cyclic or has unreachable required nodes")
        layers.append(ready)
        evaluated.update(ready)
        pending.difference_update(ready)
    return layers


class FeedForwardNetwork:
    """Phenotype built from a genome, evaluated layer by layer."""

    def __init__(
        self,
        input_keys: Sequence[int],
        output_keys: Sequence[int],
        node_evals: List[Tuple[int, str, str, float, float, List[Tuple[int, float]]]],
        depth: int = 0,
    ) -> None:
        self.input_keys = list(input_keys)
        self.output_keys = list(output_keys)
        self.node_evals = node_evals
        #: Levelised layer count: waves per forward pass.
        self.depth = depth
        self.values: Dict[int, float] = {
            key: 0.0 for key in list(input_keys) + list(output_keys)
        }

    @classmethod
    def create(cls, genome: Genome, config: GenomeConfig) -> "FeedForwardNetwork":
        enabled = [
            key for key, conn in genome.connections.items() if conn.enabled
        ]
        layers = feed_forward_layers(config.input_keys, config.output_keys, enabled)
        incoming: Dict[int, List[Tuple[int, float]]] = {}
        for (src, dst), conn in genome.connections.items():
            if conn.enabled:
                incoming.setdefault(dst, []).append((src, conn.weight))
        node_evals = []
        for layer in layers:
            for node_key in layer:
                node = genome.nodes[node_key]
                node_evals.append(
                    (
                        node_key,
                        node.activation,
                        node.aggregation,
                        node.bias,
                        node.response,
                        sorted(incoming.get(node_key, [])),
                    )
                )
        return cls(config.input_keys, config.output_keys, node_evals, len(layers))

    def activate(self, inputs: Sequence[float]) -> List[float]:
        """One forward pass.  ``inputs`` must match the input key count."""
        if len(inputs) != len(self.input_keys):
            raise ValueError(
                f"expected {len(self.input_keys)} inputs, got {len(inputs)}"
            )
        values = self.values
        for key, value in zip(self.input_keys, inputs):
            values[key] = float(value)
        for node_key, activation, aggregation, bias, response, links in self.node_evals:
            agg_fn = _AGGREGATIONS.get(aggregation)
            act_fn = _ACTIVATIONS.get(activation)
            incoming = [values.get(src, 0.0) * weight for src, weight in links]
            pre = bias + response * agg_fn(incoming)
            values[node_key] = act_fn(pre)
        return [values.get(key, 0.0) for key in self.output_keys]

    @property
    def num_macs(self) -> int:
        """Multiply-accumulate count of one forward pass (Table II metric)."""
        return sum(len(links) for *_rest, links in self.node_evals)

    def reset(self) -> None:
        self.values = {key: 0.0 for key in self.input_keys + self.output_keys}
