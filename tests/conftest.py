import os
import sys

# A test run leaves no bytecode beside the sources, in this process or in
# the CLI processes the tests start, so a benchmark run of the same
# checkout compiles them as a fresh install does.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
