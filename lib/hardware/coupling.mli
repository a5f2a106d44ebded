(** Undirected device coupling graphs, with the graph queries the SC
    backend and the routers need (adjacency, shortest paths, connected
    components and BFS trees of qubit subsets, dense-subgraph
    extraction). *)

type t

(** [create n edges] builds a graph on nodes [0..n-1]; edges are
    undirected and deduplicated.
    @raise Invalid_argument on out-of-range endpoints or self-loops. *)
val create : int -> (int * int) list -> t

val n_qubits : t -> int
val edges : t -> (int * int) list
val n_edges : t -> int

val adjacent : t -> int -> int -> bool

(** Number of directed arcs, [2 * n_edges]. *)
val n_arcs : t -> int

(** [arc g u v] — id in [\[0, n_arcs g)] of the directed arc [u → v],
    numbered in (tail, head) order, or [-1] when [u] and [v] are not
    adjacent.  Per-arc data can then live in a flat array of [n_arcs]
    slots. *)
val arc : t -> int -> int -> int

val neighbors : t -> int -> int list
val degree : t -> int -> int

(** Hop distance ([max_int] when disconnected); all-pairs BFS, cached. *)
val distance : t -> int -> int -> int

(** [shortest_path g a b] includes both endpoints.
    @raise Not_found when disconnected. *)
val shortest_path : t -> int -> int -> int list

(** {1 Subset routines in a reusable scratch}

    The routines below that take a [scratch] run in it, allocating
    nothing; it is made once for a graph and then reused across any
    number of calls.  A node set is
    passed as the first [len] entries of an [int array] and must hold
    distinct nodes.  Component labels, the BFS tree and the shortest-path
    tree each stay readable until the next call that recomputes them
    ([connected] overwrites component labels).  A scratch has a single
    owner: one compile call on one domain.  Every routine raises
    [Invalid_argument] when given a scratch made for a graph of another
    size. *)

type scratch

val scratch : t -> scratch

(** [connected g sc nodes len] — the nodes induce a connected subgraph
    ([len = 0] counts as connected). *)
val connected : t -> scratch -> int array -> int -> bool

(** [components g sc nodes len] numbers the connected components of the
    induced subgraph [0, 1, ...] in the order of their first node in
    [nodes] and returns how many there are; [component sc v] is the
    component of a member [v], [component_size sc c] the node count of
    component [c]. *)
val components : t -> scratch -> int array -> int -> int

val component : scratch -> int -> int
val component_size : scratch -> int -> int

(** [bfs_tree g sc ~root nodes len] — BFS spanning tree of the induced
    subgraph reachable from [root], neighbours visited in adjacency
    order.  Then [parent sc root = root], [depth sc root = 0], and
    [parent]/[depth] are [-1] for nodes off the tree.
    @raise Invalid_argument when [root] is not among the nodes. *)
val bfs_tree : t -> scratch -> root:int -> int array -> int -> unit

val parent : scratch -> int -> int
val depth : scratch -> int -> int

(** [arc_costs g f] — [f u v] for every arc, indexed by [arc g u v]. *)
val arc_costs : t -> (int -> int -> float) -> float array

(** [shortest_path_tree g sc ~cost ~targets ~n_targets src] — Dijkstra
    from [src] with per-arc costs [cost.(arc g u v)] (e.g. SWAP error
    rates), stopping once the first [n_targets] entries of [targets] are
    settled; read the result with [dist sc v] and [prev sc v].  Requires
    every cost to be nonnegative (and not NaN).

    The search settles nodes in increasing [(dist, node)] order — the
    lowest index wins a tie — relaxes arcs in adjacency order with a
    strict [<], and stops once every target is settled.  For each settled
    node, in particular every reachable target, [dist sc v] is the
    left-to-right float sum of the arc costs along the path obtained by
    following [prev] back to [src] ([prev sc src = -1]); both are exactly
    what a search stopping at that node alone would return.  An
    unreachable target keeps [dist = infinity]; entries of unsettled
    nodes are tentative. *)
val shortest_path_tree :
  t -> scratch -> cost:float array -> targets:int array -> n_targets:int -> int -> unit

val dist : scratch -> int -> float
val prev : scratch -> int -> int

(** [shortest_path_weighted g ~cost a b] — the [a]-to-[b] path of
    [shortest_path_tree] with arc costs [cost u v], endpoints included;
    same nonnegative-cost precondition.
    @raise Not_found when [b] is unreachable. *)
val shortest_path_weighted : t -> cost:(int -> int -> float) -> int -> int -> int list

val is_connected : t -> bool

(** [densest_subgraph g k] — a greedy approximation of the most-connected
    [k]-node subgraph (Algorithm 3's initial mapping): grow from the
    max-degree node, always adding the outside node with the most edges
    into the set.  Nodes are returned in the order they were added;
    [k = 0] gives [[]].
    @raise Invalid_argument when [k < 0] or [k > n_qubits g]. *)
val densest_subgraph : t -> int -> int list

val pp : Format.formatter -> t -> unit
