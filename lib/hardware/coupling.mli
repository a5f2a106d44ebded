(** Undirected device coupling graphs, with the graph queries the SC
    backend and the routers need (adjacency, shortest paths, connected
    components of qubit subsets, dense-subgraph extraction). *)

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

(** [shortest_path_tree g ~cost ~targets src] — Dijkstra from [src]
    with per-arc costs [cost u v] (e.g. SWAP error rates), returning
    [(dist, prev)].  Requires every cost to be nonnegative (and not NaN).

    The search settles nodes in increasing [(dist, node)] order — the
    lowest index wins a tie — relaxes arcs in adjacency order with a
    strict [<], and stops once every target is settled.  For each settled
    node, in particular every reachable target, [dist.(v)] is the
    left-to-right float sum of the arc costs along the path obtained by
    following [prev] back to [src] ([prev.(src) = -1]); both are exactly
    what a search stopping at that node alone would return.  An
    unreachable target keeps [dist = infinity]; entries of unsettled
    nodes are tentative. *)
val shortest_path_tree :
  t -> cost:(int -> int -> float) -> targets:int list -> int -> float array * int array

(** [shortest_path_weighted g ~cost a b] — the [a]-to-[b] path of
    [shortest_path_tree g ~cost ~targets:[b] a], endpoints included;
    same nonnegative-cost precondition.
    @raise Not_found when [b] is unreachable. *)
val shortest_path_weighted : t -> cost:(int -> int -> float) -> int -> int -> int list

val is_connected : t -> bool

(** [subset_components g nodes] — connected components of the subgraph
    induced by [nodes]. *)
val subset_components : t -> int list -> int list list

(** [component_of g nodes v] — the component of [v] within the induced
    subgraph ([v] must be a member). *)
val component_of : t -> int list -> int -> int list

(** [densest_subgraph g k] — a greedy approximation of the most-connected
    [k]-node subgraph (Algorithm 3's initial mapping): grow from the
    max-degree node, always adding the outside node with the most edges
    into the set.  Nodes are returned in the order they were added;
    [k = 0] gives [[]].
    @raise Invalid_argument when [k < 0] or [k > n_qubits g]. *)
val densest_subgraph : t -> int -> int list

(** [bfs_tree g ~root ~nodes] — parent array of a BFS spanning tree of the
    induced subgraph reachable from [root]; [parents.(root) = root];
    nodes outside [nodes] or unreachable get [-1]. *)
val bfs_tree : t -> root:int -> nodes:int list -> int array

val pp : Format.formatter -> t -> unit
