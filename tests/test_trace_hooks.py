"""One forward pass reaches every module-level block function by its name.

The model methods look these functions up in their module when they run,
so timing wrappers installed on the module (``perfbench/tracing.py``) see
every block call.  A method that stopped going through one of these names
would silently drop that block's per-layer metrics.
"""

import numpy as np
import pytest

from qtft import forecasting, qtft_core, tft_core
from qtft.forecasting import TrainConfig

QTFT_HOOKS = ("dense", "qglu", "qgrn", "q_variable_selection", "q_interpretable_multi_head",
              "quantum_forward")
HOOKS = {
    "tft": (tft_core, ("dense", "glu", "grn", "variable_selection", "lstm_seq",
                       "interpretable_multi_head")),
    "qtft": (qtft_core, QTFT_HOOKS + ("lstm_seq",)),
    "qtft-qlstm": (qtft_core, QTFT_HOOKS + ("qlstm_seq",)),
}


@pytest.mark.parametrize("kind", sorted(HOOKS))
def test_one_forward_reaches_every_patched_block_function(kind, monkeypatch):
    module, names = HOOKS[kind]
    model = forecasting.build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    reached = set()
    for name in names:
        def hook(*args, _orig=getattr(module, name), _name=name, **kwargs):
            reached.add(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, hook)
    rng = np.random.default_rng(0)
    model.predict_nodes(np.ones(1), rng.uniform(20, 30, (2, 5)), rng.uniform(0, 1, (2, 1)))
    assert reached == set(names)
