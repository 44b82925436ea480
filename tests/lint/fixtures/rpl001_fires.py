"""Fixture: wall-clock reads, a wall-clock wait and ambient randomness
(RPL001 fires)."""
import random
import time
from datetime import datetime


def stamp_run():
    started = time.time()
    label = datetime.now().isoformat()
    jitter = random.random()
    return started, label, jitter


def pause():
    time.sleep(0.01)
