"""Compiled batch inference: levelised genomes as per-layer edge lists.

This is the software twin of the paper's *vectorize routine* (Section
IV-A): the same :func:`feed_forward_layers` levelisation that
:class:`repro.hw.adam.ADAM` packs into systolic waves is compiled here
into per-layer edge lists, one entry per enabled link, and a whole
population's lists are concatenated so a few numpy calls per layer
advance every in-flight episode of a generation at once.  Evolved
graphs are small, sparse and irregular, so the kernel touches real
links only: nothing is padded to a common shape.

Two levels compose, driven by the ``numpy`` kernel of
:class:`repro.envs.evaluate.FitnessEvaluator`:

* :func:`compile_network` — genome → :class:`CompiledNetwork`, per-layer
  node arrays (value column, bias, response, activation) and edge arrays
  (source column, destination node, weight), functionally equivalent to
  :class:`repro.neat.network.FeedForwardNetwork` (property-tested to
  1e-12, and against the ADAM systolic model).
* :class:`StackedPlans` — concatenates a population's arrays layer by
  layer with per-plan offsets; :class:`LaneRunner` expands them to one
  value-buffer row per lane.  Each layer step is one gather of source
  values, one multiply by the weights, one ``np.bincount`` into the
  layer's nodes (it adds in input order without compensation, exactly as
  the scalar network's ``sum`` aggregation does), the activation and one
  flat scatter.

Only sum-aggregation genomes with registered vectorizable activations
compile; anything else raises :class:`CompileError` (the evaluator falls
back to the scalar network for those genomes, so mixed populations still
evaluate correctly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .config import GenomeConfig
from .genome import Genome
from .network import feed_forward_layers


class CompileError(ValueError):
    """Raised for genomes the compiler cannot express."""


# ---------------------------------------------------------------------------
# vectorized activations
#
# Each entry mirrors its scalar twin in repro.neat.activations operation
# for operation (same clamps, same formula) so compiled outputs agree
# with the node-by-node reference to float rounding.


def _clip(z, low, high):
    # np.clip without its Python-level wrapper.  Same bits, except that -0.0
    # at a zero bound comes out as 0.0; only _elu clips to zero, and it
    # feeds the value to exp(), so every activation's output is unchanged.
    return np.minimum(np.maximum(z, low), high)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-_clip(5.0 * z, -60.0, 60.0)))


def _tanh(z):
    return np.tanh(_clip(2.5 * z, -60.0, 60.0))


def _sin(z):
    return np.sin(_clip(5.0 * z, -60.0, 60.0))


def _gauss(z):
    z = _clip(z, -3.4, 3.4)
    return np.exp(-5.0 * z * z)


def _relu(z):
    return np.where(z > 0.0, z, 0.0)


def _elu(z):
    # exp() evaluated on the clipped negative branch only, so the unused
    # half of the where() never overflows.
    return np.where(z > 0.0, z, np.exp(_clip(z, -60.0, 0.0)) - 1.0)


def _lelu(z):
    return np.where(z > 0.0, z, 0.005 * z)


def _identity(z):
    return z


def _clamped(z):
    return _clip(z, -1.0, 1.0)


def _inv(z):
    small = np.abs(z) < 1e-7
    return np.where(small, 0.0, 1.0 / np.where(small, 1.0, z))


def _log(z):
    return np.log(np.maximum(1e-7, z))


def _exp(z):
    return np.exp(_clip(z, -60.0, 60.0))


def _abs(z):
    return np.abs(z)


def _hat(z):
    return np.maximum(0.0, 1.0 - np.abs(z))


def _square(z):
    z = _clip(z, -1e8, 1e8)
    return z * z


def _cube(z):
    z = _clip(z, -1e6, 1e6)
    return z * z * z


_VECTORIZED: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sigmoid": _sigmoid,
    "tanh": _tanh,
    "sin": _sin,
    "gauss": _gauss,
    "relu": _relu,
    "elu": _elu,
    "lelu": _lelu,
    "identity": _identity,
    "clamped": _clamped,
    "inv": _inv,
    "log": _log,
    "exp": _exp,
    "abs": _abs,
    "hat": _hat,
    "square": _square,
    "cube": _cube,
}


def register_vectorized_activation(
    name: str, function: Callable[[np.ndarray], np.ndarray]
) -> None:
    """Register a numpy twin for a custom scalar activation."""
    if not callable(function):
        raise TypeError(f"vectorized activation {name!r} is not callable")
    _VECTORIZED[name] = function


def vectorized_activation_names() -> List[str]:
    return sorted(_VECTORIZED)


# ---------------------------------------------------------------------------
# per-genome compilation


@dataclass
class LayerPlan:
    """One levelisation wave as an edge list over the value buffer.

    Edge ``i`` adds ``value[edge_src[i]] * edge_weight[i]`` into node row
    ``edge_dst[i]``.  Each node's edges keep its sorted-link order, the
    order :class:`FeedForwardNetwork` sums in.
    """

    node_cols: np.ndarray  # (n,) value-buffer column written per node
    bias: np.ndarray  # (n,)
    response: np.ndarray  # (n,)
    activations: Tuple[str, ...]
    edge_src: np.ndarray  # (e,) source column
    edge_dst: np.ndarray  # (e,) destination node row within this layer
    edge_weight: np.ndarray  # (e,)

    @property
    def num_nodes(self) -> int:
        return len(self.node_cols)


_NO_LAYER = LayerPlan(
    node_cols=np.empty(0, dtype=np.intp),
    bias=np.empty(0),
    response=np.empty(0),
    activations=(),
    edge_src=np.empty(0, dtype=np.intp),
    edge_dst=np.empty(0, dtype=np.intp),
    edge_weight=np.empty(0),
)


class CompiledNetwork:
    """Per-layer edge-list execution plan for one genome.

    The value buffer lays inputs out at columns ``0..num_inputs-1`` (in
    ``config.input_keys`` order) and outputs at the next ``num_outputs``
    columns, identically for every genome of a population, so stacked
    plans can share observation scatter and output gather.
    """

    def __init__(
        self,
        genome_key: int,
        num_inputs: int,
        num_outputs: int,
        num_columns: int,
        layers: List[LayerPlan],
        num_macs: int,
    ) -> None:
        self.genome_key = genome_key
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.num_columns = num_columns
        self.layers = layers
        self.num_macs = num_macs

    def activate_batch(self, observations: np.ndarray) -> np.ndarray:
        """Forward ``(batch, num_inputs)`` observations to ``(batch, num_outputs)``."""
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim != 2 or observations.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected (batch, {self.num_inputs}) observations, "
                f"got {observations.shape}"
            )
        lanes = np.zeros(observations.shape[0], dtype=np.intp)
        return StackedPlans([self]).lane_runner(lanes).step(observations)

    def activate(self, inputs: Sequence[float]) -> List[float]:
        """Single forward pass, mirroring ``FeedForwardNetwork.activate``."""
        return list(self.activate_batch(np.asarray(inputs, dtype=np.float64)[None, :])[0])


def compile_network(genome: Genome, config: GenomeConfig) -> CompiledNetwork:
    """Levelise ``genome`` and build its per-layer edge lists.

    Raises :class:`CompileError` for genomes a multiply-accumulate wave
    cannot express: non-sum aggregations and activations without a
    registered numpy twin (the same restriction the ADAM systolic model
    has).
    """
    enabled = [key for key, conn in genome.connections.items() if conn.enabled]
    layers = feed_forward_layers(config.input_keys, config.output_keys, enabled)
    incoming: Dict[int, List[Tuple[int, float]]] = {}
    for (src, dst), conn in genome.connections.items():
        if conn.enabled:
            incoming.setdefault(dst, []).append((src, conn.weight))

    columns: Dict[int, int] = {key: i for i, key in enumerate(config.input_keys)}
    for key in config.output_keys:
        columns.setdefault(key, len(columns))

    plan_layers: List[LayerPlan] = []
    num_macs = 0
    for layer in layers:
        nodes = list(layer)
        links_by_node = {n: sorted(incoming.get(n, [])) for n in nodes}
        # Sources first (sorted), then the layer's own nodes: a stable
        # column layout, independent of dict iteration order.
        for src in sorted({s for n in nodes for s, _ in links_by_node[n]}):
            columns.setdefault(src, len(columns))
        for n in nodes:
            columns.setdefault(n, len(columns))
        bias = np.empty(len(nodes))
        response = np.empty(len(nodes))
        activations = []
        edge_src: List[int] = []
        edge_dst: List[int] = []
        edge_weight: List[float] = []
        for row, n in enumerate(nodes):
            node = genome.nodes[n]
            if node.aggregation != "sum":
                raise CompileError(
                    f"node {n} uses aggregation {node.aggregation!r}; "
                    "compiled plans pack sum-aggregation genomes only"
                )
            if node.activation not in _VECTORIZED:
                raise CompileError(
                    f"node {n} uses activation {node.activation!r} with no "
                    "registered vectorized twin"
                )
            bias[row] = node.bias
            response[row] = node.response
            activations.append(node.activation)
            for s, w in links_by_node[n]:
                edge_src.append(columns[s])
                edge_dst.append(row)
                edge_weight.append(w)
        num_macs += len(edge_weight)
        plan_layers.append(
            LayerPlan(
                node_cols=np.array([columns[n] for n in nodes], dtype=np.intp),
                bias=bias,
                response=response,
                activations=tuple(activations),
                edge_src=np.array(edge_src, dtype=np.intp),
                edge_dst=np.array(edge_dst, dtype=np.intp),
                edge_weight=np.array(edge_weight, dtype=np.float64),
            )
        )
    return CompiledNetwork(
        genome_key=genome.key,
        num_inputs=len(config.input_keys),
        num_outputs=len(config.output_keys),
        num_columns=len(columns),
        layers=plan_layers,
        num_macs=num_macs,
    )


# ---------------------------------------------------------------------------
# population stacking


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start offset of each segment when segments of ``counts`` (in
    row-major order) are laid end to end."""
    return (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + counts[i])`` for every ``i``."""
    shift = starts - _exclusive_cumsum(counts)
    return np.repeat(shift, counts) + np.arange(counts.sum())


class StackedPlans:
    """A population's plans concatenated layer by layer, with no padding.

    Node and edge arrays run layer-major, then plan by plan:
    ``node_start[l, p]`` and ``node_count[l, p]`` (likewise ``edge_*``)
    locate plan ``p``'s share of layer ``l``, empty when the plan has
    fewer layers.  ``edge_dst`` is a node row within that share.
    """

    def __init__(self, plans: Sequence[CompiledNetwork]) -> None:
        if not plans:
            raise ValueError("cannot stack an empty plan list")
        self.plans = list(plans)
        self.num_inputs = plans[0].num_inputs
        self.num_outputs = plans[0].num_outputs
        self.num_layers = max(len(p.layers) for p in plans)
        self.num_columns = max(p.num_columns for p in plans)
        self.macs = np.array([p.num_macs for p in plans], dtype=np.int64)
        layers = [
            p.layers[depth] if depth < len(p.layers) else _NO_LAYER
            for depth in range(self.num_layers)
            for p in plans
        ]
        act_index: Dict[str, int] = {}
        self.act_fns: List[Callable[[np.ndarray], np.ndarray]] = []
        codes = []
        for layer in layers:
            for name in layer.activations:
                if name not in act_index:
                    act_index[name] = len(self.act_fns)
                    self.act_fns.append(_VECTORIZED[name])
                codes.append(act_index[name])
        self.node_act = np.array(codes, dtype=np.intp)
        shape = (self.num_layers, len(plans))
        self.node_count = np.array([x.num_nodes for x in layers]).reshape(shape)
        self.edge_count = np.array([len(x.edge_src) for x in layers]).reshape(shape)
        self.node_start = _exclusive_cumsum(self.node_count)
        self.edge_start = _exclusive_cumsum(self.edge_count)
        self.node_cols = np.concatenate([x.node_cols for x in layers])
        self.node_bias = np.concatenate([x.bias for x in layers])
        self.node_response = np.concatenate([x.response for x in layers])
        self.edge_src = np.concatenate([x.edge_src for x in layers])
        self.edge_dst = np.concatenate([x.edge_dst for x in layers])
        self.edge_weight = np.concatenate([x.edge_weight for x in layers])

    def lane_runner(self, lane_plans: Sequence[int]) -> "LaneRunner":
        """A rollout view with one row per lane (``lane_plans[i]`` is the
        plan index backing lane ``i``)."""
        return LaneRunner(self, np.asarray(lane_plans, dtype=np.intp))


def _mixed_activation(
    groups: List[Tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]]
) -> Callable[[np.ndarray], np.ndarray]:
    def apply(pre: np.ndarray) -> np.ndarray:
        post = np.empty_like(pre)
        for fn, rows in groups:
            post[rows] = fn(pre[rows])
        return post

    return apply


class LaneRunner:
    """Per-lane edge lists of :class:`StackedPlans` for one rollout.

    Implements the ``step(obs) -> outputs`` / ``prune(keep)`` policy
    protocol of :func:`repro.envs.evaluate.run_episodes_batched`.  Each
    lane owns one row of the value buffer.  Nodes and edges run
    layer-major, then lane by lane, so ``edges["dst"]`` (a node index)
    never decreases: each layer is a contiguous slice, and one
    ``bincount`` over it adds every node's links in the scalar
    network's order.  ``prune`` compacts the node and edge arrays to the
    lanes still running.
    """

    def __init__(self, stacked: StackedPlans, lane_plans: np.ndarray) -> None:
        self.num_inputs = stacked.num_inputs
        self.num_outputs = stacked.num_outputs
        self.num_columns = stacked.num_columns
        self.num_layers = stacked.num_layers
        self._act_fns = stacked.act_fns
        # One segment per (layer, lane), layer-major.
        segment_lane = np.tile(np.arange(len(lane_plans)), self.num_layers)
        node_count = stacked.node_count[:, lane_plans].ravel()
        edge_count = stacked.edge_count[:, lane_plans].ravel()
        nodes = _ragged(stacked.node_start[:, lane_plans].ravel(), node_count)
        edges = _ragged(stacked.edge_start[:, lane_plans].ravel(), edge_count)
        first_node = _exclusive_cumsum(node_count)
        self._nodes = {
            "lane": np.repeat(segment_lane, node_count),
            "layer": np.repeat(
                np.arange(self.num_layers),
                node_count.reshape(self.num_layers, -1).sum(axis=1),
            ),
            "col": stacked.node_cols[nodes],
            "bias": stacked.node_bias[nodes],
            "response": stacked.node_response[nodes],
            "act": stacked.node_act[nodes],
        }
        self._edges = {
            "lane": np.repeat(segment_lane, edge_count),
            "src": stacked.edge_src[edges],
            "dst": stacked.edge_dst[edges] + np.repeat(first_node, edge_count),
            "weight": stacked.edge_weight[edges],
        }
        self._num_rows = len(lane_plans)
        self._bind()

    def _bind(self) -> None:
        """Slice the arrays into per-layer kernel arguments."""
        nodes, edges = self._nodes, self._edges
        node_bounds = np.searchsorted(nodes["layer"], np.arange(self.num_layers + 1))
        edge_bounds = np.searchsorted(edges["dst"], node_bounds)
        src = edges["lane"] * self.num_columns + edges["src"]
        put = nodes["lane"] * self.num_columns + nodes["col"]
        self._kernel = []
        for depth in range(self.num_layers):
            n0, n1 = node_bounds[depth], node_bounds[depth + 1]
            e0, e1 = edge_bounds[depth], edge_bounds[depth + 1]
            if n0 == n1:
                continue
            if len(self._act_fns) == 1:
                act = self._act_fns[0]
            else:
                codes = nodes["act"][n0:n1]
                groups = [
                    (fn, np.flatnonzero(codes == code))
                    for code, fn in enumerate(self._act_fns)
                ]
                groups = [(fn, rows) for fn, rows in groups if len(rows)]
                act = groups[0][0] if len(groups) == 1 else _mixed_activation(groups)
            self._kernel.append(
                (
                    src[e0:e1],
                    edges["dst"][e0:e1] - n0,
                    edges["weight"][e0:e1],
                    nodes["bias"][n0:n1],
                    nodes["response"][n0:n1],
                    put[n0:n1],
                    act,
                )
            )

    def step(self, observations: np.ndarray) -> np.ndarray:
        values = np.zeros((self._num_rows, self.num_columns))
        values[:, : self.num_inputs] = observations
        flat = values.ravel()
        for src, dst, weight, bias, response, put, act in self._kernel:
            sums = np.bincount(dst, weights=flat.take(src) * weight, minlength=len(bias))
            flat[put] = act(bias + response * sums)
        return values[:, self.num_inputs : self.num_inputs + self.num_outputs]

    def prune(self, keep: np.ndarray) -> None:
        keep = np.asarray(keep, dtype=bool)
        new_row = np.cumsum(keep) - 1
        node_keep = keep[self._nodes["lane"]]
        edge_keep = keep[self._edges["lane"]]
        new_node = np.cumsum(node_keep) - 1
        self._nodes = {k: v[node_keep] for k, v in self._nodes.items()}
        self._edges = {k: v[edge_keep] for k, v in self._edges.items()}
        self._nodes["lane"] = new_row[self._nodes["lane"]]
        self._edges["lane"] = new_row[self._edges["lane"]]
        self._edges["dst"] = new_node[self._edges["dst"]]
        self._num_rows = int(keep.sum())
        self._bind()
