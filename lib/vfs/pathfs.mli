(** Lift an inode-level file system to the path-based interface. *)

(** How [resolve] turns a split path into an inode.  [resolve_rel t key
    parts] receives the canonical absolute path ([key], "/"-joined from
    [parts]) alongside the components, so a caching resolver can index
    whole paths without re-deriving the key. *)
module type RESOLVER = sig
  type t

  val resolve_rel : t -> string -> string list -> int Errno.result
end

module MakeWith (F : Fs_intf.LOW) (R : RESOLVER with type t = F.t) :
  Fs_intf.S with type t = F.t
(** Path operations over [F], resolving through [R] (lib/namei's
    full-path shortcut cache interposes here).  Trailing-slash directory
    claims are still checked above the resolver, so errnos are identical
    with and without caching. *)
