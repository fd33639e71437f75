"""Loaded at start-up by every Python process that has this directory on
``PYTHONPATH``: the router, shard and pool-worker processes of a traced or
fault-injected ``repro route`` started by ``perfsuite/serve.py``.
"""

import os
import sys

if os.environ.get("PERFSUITE_TRACE_DIR") or os.environ.get("PERFSUITE_CORRUPT"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import servehooks

    servehooks.install()
