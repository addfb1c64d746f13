"""R001 fixture: shared-state writes in per-part hot methods (7 hits)."""


class MiningApplication:
    pass


class LeakyApp(MiningApplication):
    def __init__(self):
        self.count = 0
        self.seen = []
        self.cache = {}

    def map_embedding(self, ctx, embedding, pmap, part=None):
        self.count += 1  # hit 1: AugAssign on self
        self.seen.append(embedding)  # hit 2: mutator call on self attr
        self._note(embedding)

    def block_filter(self, ctx):
        self.cache[ctx] = True  # hit 6: subscript store on a self attr
        self.last = ctx  # hit 3: plain Assign on self
        return None

    def _note(self, embedding):
        # hit 4: reached transitively from map_embedding via self._note
        self.latest = embedding

    def finish_part(self, ctx, part):
        self.count += 1  # legal: finish_part is coordinator-serial


class DeeperApp(LeakyApp):
    """Subclass-of-subclass: still an app, still checked."""

    def start_part(self, ctx):
        self.parts_started += 1  # hit 5: start_part is hot too
        return []

    def map_block(self, ctx, block, pmap, part=None):
        self.rows_seen = len(block)  # hit 7: map_block is the engine's mapper hook
        pmap[0] = len(block)
