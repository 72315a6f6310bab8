(** The layer stack every file system in this repository runs under,
    outermost last:

    + {!Cffs_vfs.Obs_low.Make}: obs spans, per-op latency histograms and
      the one [Io_error] → [EIO] mapping;
    + {!Namei.Make}: the per-mount dentry and attribute caches;
    + {!Cffs_vfs.Pathfs.MakeWith} resolving through {!Namei.Resolver}:
      the path API over the full-path shortcut cache.

    A file system implements the inode-level operations and [include]s
    [Make] of them.  Its own inode-level names are then rebound to the
    cached, instrumented ones, so direct callers (workloads, fsck, tests)
    see exactly what path-level access sees — anything else would let a
    direct mutation leave a stale cache entry behind. *)

module type SOURCE = sig
  include Cffs_vfs.Obs_low.SOURCE

  val namei : t -> Namei.t
  (** The mount's cache state (so two instances never share entries). *)
end

module Make (F : SOURCE) : Cffs_vfs.Fs_intf.S with type t := F.t
