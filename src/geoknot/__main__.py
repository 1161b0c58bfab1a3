"""``python -m geoknot``: the ``geoknot`` command line."""

from .cli import entry

entry()
