"""Interpreter start hook for traced benchmark runs.

The benchmark puts this directory on the ``PYTHONPATH`` of the server
processes it launches (and, through the inherited environment, of the
federation's directory and pods), so each of them installs the layer
wrappers before ``repro.cli`` runs.  Without ``PERFBENCH_SPANS`` it does
nothing.
"""

import layertrace

layertrace.install_from_environment()
