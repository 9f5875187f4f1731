"""Differentiable non-maximum suppression for 3D detection pipelines.

The package rescoring core works on plain numpy arrays: scores in [0, 1] and a
pairwise overlap matrix, or the rectangles whose overlaps it evaluates on
demand. Classical hard NMS, soft NMS, and three closed-form
matrix rescorers share one configuration object, and the masked variant comes
with analytic gradients that are verified against finite differences. Around
the core sit rotated-box overlap geometry, target assignment and ranking
losses, an AP|R40 evaluator, KITTI and JSONL input/output, a synthetic scene
generator, and a CLI (``diffnms``).

Each library module's ``__all__`` is its public surface; the package
re-exports their union.
"""

from . import boxes, geometry, gradients, harness, io_jsonl, io_kitti, nms, ranking, synthetic
from .boxes import *
from .geometry import *
from .gradients import *
from .harness import *
from .io_jsonl import *
from .io_kitti import *
from .nms import *
from .ranking import *
from .synthetic import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (boxes, geometry, gradients, harness, io_jsonl, io_kitti, nms, ranking, synthetic)
    for name in module.__all__
)
