"""Print the 25 acceptance rows: five algorithms on five slices.

Run from the repository root::

    python3 tools/acceptance_rows.py

The protocol is the acceptance one: the 96^3 four-shell phantom with 10 %
gaussian noise (seed 0), 4 clusters, ``AttractionParams(0.5, 0.5, 2, 3,
1.5)``, swarm and GA population 20 x 10 (seed 0), on z:48, x:0, y:95, x:40
and y:55.  x:0 and y:95 are faces that hold one label; x:40 and y:55 hold
all four.  Each row is ``slice algorithm labels/membership/centres
iterations weights final_cost stop_reason``, where the three hashes are the
first 16 hex digits of the sha256 of each array's bytes and ``final_cost``
is its ``repr``.  A change that should leave the results alone must print
the same rows: save them before it and compare after it, in bash::

    python3 tools/acceptance_rows.py > rows.txt
    diff rows.txt <(python3 tools/acceptance_rows.py)

``diff`` shows each row that differs and exits 1 if there is one.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from voxseg.attraction import AttractionParams  # noqa: E402
from voxseg.fcm import FcmConfig  # noqa: E402
from voxseg.noise import NoiseSpec, add_noise  # noqa: E402
from voxseg.optimize import GaConfig, PsoConfig  # noqa: E402
from voxseg.phantom import PhantomSpec, generate_phantom  # noqa: E402
from voxseg.pipelines import ALGORITHMS, segment  # noqa: E402
from voxseg.volume import SliceRef  # noqa: E402

SLICES = ("z:48", "x:0", "y:95", "x:40", "y:55")


def digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def main() -> None:
    vol, _ = generate_phantom(PhantomSpec(dims=(96, 96, 96), num_shells=4))
    noisy = add_noise(vol, NoiseSpec("gaussian", 10.0, seed=0))
    params = AttractionParams(0.5, 0.5, level=2, depth=3, decay=1.5)
    for spec in SLICES:
        for algorithm in ALGORITHMS:
            res = segment(algorithm, noisy, SliceRef.parse(spec), 4, FcmConfig(), params,
                          PsoConfig(swarm_size=20, max_iter=10, seed=0),
                          GaConfig(population=20, generations=10, seed=0))
            weights = ("–" if res.feature_weight is None
                       else f"({res.feature_weight!r}, {res.spatial_weight!r})")
            hashes = "/".join(digest(a) for a in (res.labels.labels, res.membership,
                                                  res.centers))
            print(spec, algorithm, hashes, res.iterations, weights, repr(res.final_cost),
                  res.stop_reason, flush=True)


if __name__ == "__main__":
    main()
