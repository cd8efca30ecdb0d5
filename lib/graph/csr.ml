type t = Graph.t

module Builder = Graph.Two_pass
