"""The Born estimator as a per-trajectory loop: the reference for the library's state loop.

Each stream carries one (2n, K) label vector and one weight per
trajectory: the library's input draw, expanded by each draw's index.
Every named gate and effect step runs on all K trajectories through
``sampling._step``; an explicit gate draws each trajectory's image from
the column of its own local label, through the same ``_LocalGate.draw``
and the same uniform block as the library. A stream's
sum is ``math.fsum`` over the K real parts, one at a time. The library
instead runs each step once per distinct state and sums count x weight;
both must give the same report, bit for bit.
"""

import math

import numpy as np

from quditphase import EstimateReport, measures, sampling


def per_trajectory_report(circuit, epsilon, p_fail, seed, streams, char):
    d = circuit.system.d
    steps, values, effect = sampling._frame(circuit, char)
    m_forward, norm_method = sampling._aggregated_norm(steps, values, effect)
    k_total = sampling.sample_count(m_forward, epsilon, p_fail)
    source = measures._InputLabels(values)
    stream_sums = []
    for s, k_s in enumerate(sampling._split_sizes(k_total, streams)):
        rng = measures._stream_rng(seed, s)
        digits, units, ids = source.draw(rng, k_s)
        w, labels = units[ids], digits[:, ids]  # one label and weight per trajectory
        for axes, op in steps + effect:
            if isinstance(op, sampling._LocalGate):
                local = labels[axes[0]].astype(np.int64)
                for a in axes[1:]:
                    local *= d
                    local += labels[a]
                image, cnorm, picked = op.draw(local, rng.random(len(local)))
                labels[axes] = np.unravel_index(image, (d,) * len(axes))
                w = w * cnorm * picked / np.abs(picked)
            else:
                w = sampling._step(d, labels, w, axes, op)
        stream_sums.append(math.fsum(memoryview(np.real(w))))
    return EstimateReport(
        estimate=float(math.fsum(stream_sums) / k_total),
        epsilon=float(epsilon),
        failure_prob=float(p_fail),
        samples_used=k_total,
        forward_norm=float(m_forward),
        seed=seed,
        streams=streams,
        norm_method=norm_method,
    )
