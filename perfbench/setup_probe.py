"""Start-up probe: import the command line, resolve a config file to an
``ExperimentConfig`` and exit.  Its launch-to-exit time is ``setup_s``.

    python3 perfbench/setup_probe.py CONFIG_PATH SEED
"""

import sys
from pathlib import Path

from trotopt import cli  # noqa: F401  (the modules every command loads)
from trotopt.experiments import build_config, parse_config_text

if __name__ == "__main__":
    path, seed = sys.argv[1:]
    build_config(parse_config_text(Path(path).read_text(encoding="utf-8")), master_seed=int(seed))
