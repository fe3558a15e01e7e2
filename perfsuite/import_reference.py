"""The set-up reference: imports a fixed set of standard-library modules.

``run.py`` runs this file in a fresh interpreter beside every set-up
child and scales ``setup_s`` by its time, as it scales ``run_s`` by
``reference.py``.  Importing is the bulk of a set-up, and these imports
do the same kinds of work (finding, reading and executing modules)
without touching ``repro``.  The clock starts at the first statement.
Prints the seconds the imports took.  Do not change the module list:
every baseline is expressed in its units.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402,F401
import asyncio  # noqa: E402,F401
import csv  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import decimal  # noqa: E402,F401
import email.mime.multipart  # noqa: E402,F401
import fractions  # noqa: E402,F401
import http.client  # noqa: E402,F401
import json  # noqa: E402,F401
import logging  # noqa: E402,F401
import sqlite3  # noqa: E402,F401
import statistics  # noqa: E402,F401
import tarfile  # noqa: E402,F401
import typing  # noqa: E402,F401
import unittest  # noqa: E402,F401
import xml.etree.ElementTree  # noqa: E402,F401
import zipfile  # noqa: E402,F401

print(perf_counter() - START)
