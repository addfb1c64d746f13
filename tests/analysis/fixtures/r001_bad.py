"""R001 fixture: shared-state writes in per-part hot methods (6 hits)."""


class MiningApplication:
    pass


class LeakyApp(MiningApplication):
    def __init__(self):
        self.count = 0
        self.seen = []
        self.cache = {}

    def map_embedding(self, ctx, embedding, pmap):
        self.count += 1  # hit 1: AugAssign on self
        self.seen.append(embedding)  # hit 2: mutator call on self attr
        self._note(embedding)

    def block_filter(self, ctx):
        self.cache[ctx] = True  # hit 5: subscript store on a self attr
        self.last = ctx  # hit 3: plain Assign on self
        return None

    def _note(self, embedding):
        # hit 4: reached transitively from map_embedding via self._note
        self.latest = embedding

    def reduce(self, ctx, pmaps):
        self.count += 1  # legal: reduce is coordinator-serial
        return {}


class DeeperApp(LeakyApp):
    """Subclass-of-subclass: still an app, still checked."""

    def map_block(self, ctx, block, pmap):
        self.rows_seen = len(block)  # hit 6: map_block is the engine's mapper hook
        pmap[0] = len(block)
